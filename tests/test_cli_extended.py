"""Tests for the stream / analyze / hierarchy / bench CLI subcommands."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import load_truth_partition


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_ext")
    edges = tmp / "g.tsv"
    truth = tmp / "t.tsv"
    main([
        "generate", "--category", "low_low", "--vertices", "150",
        "--seed", "5", "--out", str(edges), "--truth-out", str(truth),
    ])
    answer = tmp / "p.tsv"
    main(["partition", str(edges), "--out", str(answer), "--seed", "1"])
    return edges, truth, answer, tmp


class TestStream:
    def test_sample_order(self, files, capsys):
        edges, truth, _, _ = files
        code = main([
            "stream", str(edges), "--truth", str(truth), "--stages", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert out.count("full") >= 1

    def test_snowball_order(self, files, capsys):
        edges, _, _, _ = files
        code = main([
            "stream", str(edges), "--stages", "2", "--order", "snowball",
        ])
        assert code == 0
        assert "NMI" not in capsys.readouterr().out


class TestAnalyze:
    def test_summary_only(self, files, capsys):
        edges, _, answer, _ = files
        assert main(["analyze", str(edges), str(answer)]) == 0
        out = capsys.readouterr().out
        assert "blocks over" in out
        assert "conductance" in out

    def test_with_comparison(self, files, capsys):
        edges, truth, answer, _ = files
        assert main([
            "analyze", str(edges), str(answer), "--truth", str(truth),
        ]) == 0
        out = capsys.readouterr().out
        assert "NMI=" in out
        assert "jaccard" in out


class TestHierarchy:
    def test_prints_levels(self, files, capsys):
        edges, *_ = files
        assert main(["hierarchy", str(edges), "--max-levels", "2"]) == 0
        out = capsys.readouterr().out
        assert "hierarchy depth" in out
        assert "level 0" in out

    def test_writes_level_files(self, files, capsys):
        edges, _, _, tmp = files
        prefix = tmp / "h"
        assert main([
            "hierarchy", str(edges), "--max-levels", "2",
            "--out-prefix", str(prefix),
        ]) == 0
        level0 = load_truth_partition(f"{prefix}_level0.tsv",
                                      num_vertices=150)
        assert level0.min() >= 0


class TestBenchCommand:
    def test_bench_with_tiny_matrix(self, tmp_path, capsys, monkeypatch):
        """Run the bench subcommand end-to-end on a 2-cell matrix."""
        import repro.cli as cli
        from repro.bench.workloads import WorkloadSpec

        import repro.bench.report as report

        monkeypatch.setattr(
            cli, "full_matrix",
            lambda algos: (
                WorkloadSpec("low_low", 120, "GSAP"),
                WorkloadSpec("low_low", 120, "uSAP"),
            ),
        )
        monkeypatch.setattr(report, "matrix_sizes", lambda: (120,))
        monkeypatch.setattr(report, "gsap_only_sizes", lambda: ())
        from repro.config import SBPConfig

        monkeypatch.setattr(
            cli, "bench_config",
            lambda seed: SBPConfig(
                max_num_nodal_itr=5,
                delta_entropy_threshold1=1e-2,
                delta_entropy_threshold2=5e-3,
                seed=seed,
            ),
        )
        out = tmp_path / "bench_out"
        assert main(["bench", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Table 3" in text
        assert "Table 4" in text
        assert (out / "report.md").exists()
        assert (out / "cells.csv").exists()
        csv = (out / "cells.csv").read_text()
        assert "GSAP" in csv and "uSAP" in csv


class TestPartitionBaselineAlgos:
    def test_reference_algo_via_cli(self, tmp_path, capsys):
        edges = tmp_path / "tiny.tsv"
        truth = tmp_path / "tiny_t.tsv"
        main([
            "generate", "--category", "low_low", "--vertices", "60",
            "--seed", "1", "--out", str(edges), "--truth-out", str(truth),
        ])
        capsys.readouterr()
        code = main([
            "partition", str(edges), "--algo", "reference",
            "--truth", str(truth), "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reference-sbp" in out
        assert "NMI vs truth" in out

    def test_usap_algo_via_cli(self, tmp_path, capsys):
        edges = tmp_path / "tiny2.tsv"
        main([
            "generate", "--category", "low_low", "--vertices", "60",
            "--seed", "1", "--out", str(edges),
        ])
        capsys.readouterr()
        assert main(["partition", str(edges), "--algo", "uSAP"]) == 0
        assert "uSAP" in capsys.readouterr().out


class TestPartitionFaultPlan:
    @pytest.fixture
    def plan(self, tmp_path):
        from repro.resilience import FaultPlan, FaultSpec

        path = tmp_path / "plan.json"
        FaultPlan(
            faults=(FaultSpec(kind="kernel", at=0, count=10**6),)
        ).save_json(path)
        return path

    @pytest.mark.parametrize("algo", ["reference", "uSAP", "I-SBP", "EDiSt"])
    def test_rejected_for_cpu_engines(self, files, plan, algo, capsys):
        # the CPU engines run on a private device no plan reaches, so
        # accepting the flag would run them with no faults
        edges = files[0]
        code = main([
            "partition", str(edges), "--algo", algo,
            "--fault-plan", str(plan),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "--fault-plan is only supported for GSAP" in captured.err
        assert "installed fault plan" not in captured.out

    def test_retries_exhausted_is_one_line(self, files, plan, capsys):
        edges = files[0]
        code = main([
            "partition", str(edges), "--algo", "GSAP",
            "--fault-plan", str(plan),
        ])
        assert code == 1
        err = capsys.readouterr().err
        lines = [ln for ln in err.splitlines() if "retries exhausted" in ln]
        assert len(lines) == 1
        assert "injected launch failure" in lines[0]
