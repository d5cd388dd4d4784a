"""Tests for the gsap command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_edge_list, load_truth_partition


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--category", "low_low", "--vertices", "100",
             "--out", "x.tsv"]
        )
        assert args.category == "low_low"
        assert args.vertices == 100

    def test_partition_algo_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "g.tsv", "--algo", "nope"])


class TestGenerate:
    def test_writes_files(self, tmp_path, capsys):
        out = tmp_path / "g.tsv"
        truth_out = tmp_path / "t.tsv"
        code = main([
            "generate", "--category", "High-High", "--vertices", "150",
            "--out", str(out), "--truth-out", str(truth_out),
        ])
        assert code == 0
        graph = load_edge_list(out)
        assert graph.num_vertices == 150
        truth = load_truth_partition(truth_out, num_vertices=150)
        assert truth.min() >= 0
        assert "150 vertices" in capsys.readouterr().out

    def test_bad_category(self, tmp_path):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            main([
                "generate", "--category", "nope", "--vertices", "10",
                "--out", str(tmp_path / "g.tsv"),
            ])


class TestPartition:
    @pytest.fixture
    def files(self, tmp_path):
        out = tmp_path / "g.tsv"
        truth = tmp_path / "t.tsv"
        main([
            "generate", "--category", "low_low", "--vertices", "120",
            "--seed", "3", "--out", str(out), "--truth-out", str(truth),
        ])
        return out, truth

    def test_gsap_partition_with_truth(self, files, tmp_path, capsys):
        edges, truth = files
        answer = tmp_path / "answer.tsv"
        code = main([
            "partition", str(edges), "--truth", str(truth),
            "--out", str(answer), "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "GSAP" in output
        assert "NMI vs truth" in output
        written = load_truth_partition(answer, num_vertices=120)
        assert written.min() >= 0

    def test_partition_without_truth(self, files, capsys):
        edges, _ = files
        code = main(["partition", str(edges), "--seed", "1"])
        assert code == 0
        assert "NMI" not in capsys.readouterr().out


class TestInfo:
    def test_prints_table1(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Low-Low" in out
        assert "1,000,000" in out
