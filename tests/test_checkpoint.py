"""Tests for result checkpointing."""

import json

import numpy as np
import pytest

from repro.checkpoint import load_result, save_result
from repro.core.result import PartitionResult
from repro.core.state import PhaseTimings, ProposalStats
from repro.errors import CheckpointCorruptError, ReproError


@pytest.fixture
def result():
    return PartitionResult(
        partition=np.array([0, 1, 1, 2, 0]),
        num_blocks=3,
        mdl=123.456,
        history=[(5, 200.0), (3, 123.456)],
        timings=PhaseTimings(
            block_merge_s=1.0, vertex_move_s=8.0, golden_section_s=0.5
        ),
        proposal_stats=ProposalStats(
            merge_proposals=100, merge_proposal_time_s=0.2,
            move_proposals=500, move_proposal_time_s=1.5,
        ),
        total_time_s=10.0,
        sim_time_s=0.05,
        num_sweeps=42,
        converged=True,
        algorithm="GSAP",
    )


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path, result):
        save_result(result, tmp_path / "run1")
        loaded = load_result(tmp_path / "run1")
        np.testing.assert_array_equal(loaded.partition, result.partition)
        assert loaded.num_blocks == result.num_blocks
        assert loaded.mdl == result.mdl
        assert loaded.history == result.history
        assert loaded.timings == result.timings
        assert loaded.proposal_stats == result.proposal_stats
        assert loaded.total_time_s == result.total_time_s
        assert loaded.sim_time_s == result.sim_time_s
        assert loaded.num_sweeps == result.num_sweeps
        assert loaded.converged == result.converged
        assert loaded.algorithm == result.algorithm

    def test_creates_directory(self, tmp_path, result):
        out = save_result(result, tmp_path / "a" / "b")
        assert (out / "result.json").exists()
        assert (out / "partition.npy").exists()

    def test_json_is_readable(self, tmp_path, result):
        save_result(result, tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["algorithm"] == "GSAP"
        assert payload["num_blocks"] == 3


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            load_result(tmp_path / "nothing")

    def test_version_mismatch(self, tmp_path, result):
        save_result(result, tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        payload["format_version"] = 999
        (tmp_path / "result.json").write_text(json.dumps(payload))
        with pytest.raises(ReproError):
            load_result(tmp_path)

    def test_partial_checkpoint_rejected(self, tmp_path, result):
        save_result(result, tmp_path)
        (tmp_path / "partition.npy").unlink()
        with pytest.raises(ReproError):
            load_result(tmp_path)

    @pytest.mark.parametrize("strip", ["key", "entry"])
    def test_stripped_digests_rejected(self, tmp_path, result, strip):
        # format 3 always digests the partition, so a manifest without
        # that digest cannot vouch for a (here: damaged) partition.npy
        save_result(result, tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        if strip == "key":
            del payload["content_digests"]
        else:
            payload["content_digests"] = {}
        (tmp_path / "result.json").write_text(json.dumps(payload))
        np.save(tmp_path / "partition.npy", np.array([2, 2, 2, 2, 2]))
        with pytest.raises(CheckpointCorruptError, match="no content digest"):
            load_result(tmp_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_digest_formats_still_load(self, tmp_path, result, version):
        save_result(result, tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        payload["format_version"] = version
        del payload["content_digests"]
        (tmp_path / "result.json").write_text(json.dumps(payload))
        loaded = load_result(tmp_path)
        np.testing.assert_array_equal(loaded.partition, result.partition)
