"""Run-checkpoint tests: atomic mid-run snapshots and kill-and-resume.

The headline guarantee under test: a run killed between golden-section
plateaus and resumed from its checkpoint directory produces the *exact*
final partition (and MDL, and search history) of an uninterrupted run
with the same seed.
"""

import json

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    GSAPPartitioner,
    ResilienceConfig,
    RetryExhaustedError,
    SBPConfig,
    install_fault_injector,
    load_dataset,
    load_run_checkpoint,
    save_run_checkpoint,
)
from repro.checkpoint import (
    RunCheckpoint,
    graph_fingerprint,
    has_run_checkpoint,
    load_result,
    save_result,
)
from repro.core.result import PartitionResult
from repro.core.state import PartitionSnapshot, PhaseTimings, ProposalStats
from repro.errors import CheckpointCorruptError, CheckpointError
from repro.graph.builder import build_graph
from repro.gpusim.device import A4000, Device
from repro.resilience.retry import ResilienceStats

pytestmark = pytest.mark.faults


BASE_KW = dict(
    max_num_nodal_itr=10,
    delta_entropy_threshold1=5e-3,
    delta_entropy_threshold2=1e-3,
    seed=9,
)


@pytest.fixture(scope="module")
def graph():
    g, _ = load_dataset("low_low", 120, seed=1)
    return g


def _snapshot(num_blocks: int, mdl: float, n: int = 10) -> PartitionSnapshot:
    rng = np.random.default_rng(num_blocks)
    return PartitionSnapshot(
        num_blocks=num_blocks, mdl=mdl,
        bmap=rng.integers(0, num_blocks, n),
    )


@pytest.fixture
def run_state(graph) -> RunCheckpoint:
    stats = ResilienceStats(faults_absorbed=2, retries=1)
    stats.faults_by_kind = {"InjectedKernelFault": 2}
    return RunCheckpoint(
        plateau=3,
        initial_mdl=5432.1,
        num_sweeps=17,
        history=[(120, 5432.1), (60, 4000.0), (30, 3900.0)],
        snapshots=[_snapshot(60, 4000.0), _snapshot(30, 3900.0), None],
        graph_fingerprint=graph_fingerprint(graph),
        config={"seed": 9},
        timings=PhaseTimings(block_merge_s=1.5, vertex_move_s=9.0,
                             golden_section_s=0.25),
        proposal_stats=ProposalStats(merge_proposals=10,
                                     merge_proposal_time_s=0.1,
                                     move_proposals=99,
                                     move_proposal_time_s=0.9),
        resilience=stats,
        degradation={"batch_halvings": 1, "dense_rebuild": False},
        sim_time_s=0.125,
    )


class TestRunCheckpointRoundTrip:
    def test_exact_round_trip(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        loaded = load_run_checkpoint(tmp_path)
        assert loaded.plateau == run_state.plateau
        assert loaded.initial_mdl == run_state.initial_mdl
        assert loaded.num_sweeps == run_state.num_sweeps
        assert loaded.history == run_state.history
        assert loaded.graph_fingerprint == run_state.graph_fingerprint
        assert loaded.config == run_state.config
        assert loaded.timings == run_state.timings
        assert loaded.proposal_stats == run_state.proposal_stats
        assert loaded.resilience == run_state.resilience
        assert loaded.degradation == run_state.degradation
        assert loaded.sim_time_s == run_state.sim_time_s
        for got, want in zip(loaded.snapshots, run_state.snapshots):
            if want is None:
                assert got is None
            else:
                assert got.num_blocks == want.num_blocks
                assert got.mdl == want.mdl
                np.testing.assert_array_equal(got.bmap, want.bmap)

    def test_has_run_checkpoint(self, tmp_path, run_state):
        assert not has_run_checkpoint(tmp_path)
        save_run_checkpoint(run_state, tmp_path)
        assert has_run_checkpoint(tmp_path)

    def test_supersedes_older_state_files(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        run_state.plateau = 4
        save_run_checkpoint(run_state, tmp_path)
        states = sorted(p.name for p in tmp_path.glob("state-*.npz"))
        assert states == ["state-000004.npz"]
        assert load_run_checkpoint(tmp_path).plateau == 4

    def test_no_temp_files_left_behind(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestRunCheckpointValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_run_checkpoint(tmp_path / "void")

    def test_version_mismatch(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        payload["format_version"] = 999
        (tmp_path / "run.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format version"):
            load_run_checkpoint(tmp_path)

    def test_truncated_manifest(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        manifest = tmp_path / "run.json"
        manifest.write_text(manifest.read_text()[: 40])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_run_checkpoint(tmp_path)

    def test_wrong_kind(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        payload["kind"] = "something-else"
        (tmp_path / "run.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="not a gsap-run"):
            load_run_checkpoint(tmp_path)

    def test_lost_state_file(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        for state in tmp_path.glob("state-*.npz"):
            state.unlink()
        with pytest.raises(CheckpointError, match="state file"):
            load_run_checkpoint(tmp_path)

    @pytest.mark.parametrize("strip", ["key", "entry"])
    def test_stripped_digests_rejected(self, tmp_path, run_state, strip):
        # format 2 always digests the state file, so a manifest without
        # that digest cannot vouch for a (here: damaged) state file
        save_run_checkpoint(run_state, tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        if strip == "key":
            del payload["content_digests"]
        else:
            payload["content_digests"] = {}
        (tmp_path / "run.json").write_text(json.dumps(payload))
        state = tmp_path / payload["state_file"]
        with np.load(state) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        arrays["snap0"] = np.zeros_like(arrays["snap0"])
        np.savez(state, **arrays)
        with pytest.raises(CheckpointCorruptError, match="no content digest"):
            load_run_checkpoint(tmp_path)

    def test_pre_digest_format_still_loads(self, tmp_path, run_state):
        save_run_checkpoint(run_state, tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        payload["format_version"] = 1
        del payload["content_digests"]
        (tmp_path / "run.json").write_text(json.dumps(payload))
        loaded = load_run_checkpoint(tmp_path)
        assert loaded.plateau == run_state.plateau

    def test_incomplete_manifest_is_checkpoint_error(self, tmp_path, run_state):
        """A manifest missing keys surfaces as CheckpointError, not KeyError."""
        save_run_checkpoint(run_state, tmp_path)
        payload = json.loads((tmp_path / "run.json").read_text())
        del payload["plateau"]
        (tmp_path / "run.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="incomplete"):
            load_run_checkpoint(tmp_path)

    def test_resume_rejects_different_graph(self, tmp_path, graph):
        config = SBPConfig(**BASE_KW)
        GSAPPartitioner(config, device=Device(A4000)).partition(
            graph, checkpoint_dir=tmp_path
        )
        other = build_graph([0, 1, 2], [1, 2, 0])
        with pytest.raises(CheckpointError, match="different graph"):
            GSAPPartitioner(config, device=Device(A4000)).partition(
                other, resume_from=tmp_path
            )


class TestResultCheckpointResilience:
    def test_result_resilience_round_trips(self, tmp_path):
        stats = ResilienceStats(faults_absorbed=3, retries=2)
        stats.record_degradation("halved batches")
        result = PartitionResult(
            partition=np.array([0, 1, 0]),
            num_blocks=2,
            mdl=10.0,
            resilience=stats,
        )
        save_result(result, tmp_path)
        loaded = load_result(tmp_path)
        assert loaded.resilience == stats

    def test_truncated_result_is_checkpoint_error(self, tmp_path):
        result = PartitionResult(
            partition=np.array([0, 1]), num_blocks=2, mdl=1.0
        )
        save_result(result, tmp_path)
        manifest = tmp_path / "result.json"
        manifest.write_text(manifest.read_text()[: 25])
        with pytest.raises(CheckpointError):
            load_result(tmp_path)

    def test_incomplete_result_is_checkpoint_error(self, tmp_path):
        """Missing keys surface as CheckpointError, never a raw KeyError."""
        result = PartitionResult(
            partition=np.array([0, 1]), num_blocks=2, mdl=1.0
        )
        save_result(result, tmp_path)
        payload = json.loads((tmp_path / "result.json").read_text())
        del payload["num_blocks"]
        (tmp_path / "result.json").write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="incomplete"):
            load_result(tmp_path)

    def test_save_leaves_no_temp_files(self, tmp_path):
        result = PartitionResult(
            partition=np.array([0, 1]), num_blocks=2, mdl=1.0
        )
        save_result(result, tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


def _kill_midway(config, graph, checkpoint_dir) -> None:
    """Kill a run with an unrecoverable kernel-fault storm midway (the
    full run launches ~2,460 kernels), checkpointing every plateau."""
    kill_config = config.replace(
        resilience=ResilienceConfig(
            max_attempts=2, fault_budget=3, base_delay_s=0.0
        )
    )
    device = Device(A4000)
    install_fault_injector(
        device,
        FaultPlan(faults=(FaultSpec(kind="kernel", at=1100,
                                    count=10**6),)),
    )
    with pytest.raises(RetryExhaustedError):
        GSAPPartitioner(kill_config, device=device).partition(
            graph, checkpoint_dir=checkpoint_dir
        )


class TestKillAndResume:
    def test_killed_run_resumes_byte_identically(self, tmp_path, graph):
        """The issue's acceptance gate: kill mid-run, resume, reproduce."""
        config = SBPConfig(**BASE_KW)
        full = GSAPPartitioner(config, device=Device(A4000)).partition(graph)

        _kill_midway(config, graph, tmp_path)

        ck = load_run_checkpoint(tmp_path)
        assert 0 < ck.plateau < len(full.history)

        # resume on a healthy device: identical partition, MDL, history
        resumed = GSAPPartitioner(config, device=Device(A4000)).partition(
            graph, resume_from=tmp_path
        )
        np.testing.assert_array_equal(resumed.partition, full.partition)
        assert resumed.mdl == full.mdl
        assert resumed.history == full.history
        assert resumed.resilience.resumed_from == str(tmp_path)
        assert resumed.converged

        # the finished run left a final checkpoint: resuming it again is
        # a no-op continue that reproduces the same result once more
        again = GSAPPartitioner(config, device=Device(A4000)).partition(
            graph, resume_from=tmp_path
        )
        np.testing.assert_array_equal(again.partition, full.partition)
        assert again.mdl == full.mdl

    def test_older_degradation_state_resumes(self, tmp_path, graph):
        """A checkpoint whose degradation state still carries the retired
        ``no_incremental`` rung loads, resumes, and drops the key."""
        config = SBPConfig(**BASE_KW)
        full = GSAPPartitioner(config, device=Device(A4000)).partition(graph)
        _kill_midway(config, graph, tmp_path)
        manifest = tmp_path / "run.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload["degradation"] = {
            "batch_halvings": 0, "dense_rebuild": False, "no_incremental": True,
        }
        manifest.write_text(json.dumps(payload), encoding="utf-8")

        resumed = GSAPPartitioner(config, device=Device(A4000)).partition(
            graph, resume_from=tmp_path
        )
        np.testing.assert_array_equal(resumed.partition, full.partition)
        assert resumed.mdl == full.mdl
        assert resumed.history == full.history
        assert load_run_checkpoint(tmp_path).degradation == {
            "batch_halvings": 0, "dense_rebuild": False,
        }

    def test_checkpoint_cadence(self, tmp_path, graph):
        config = SBPConfig(
            **BASE_KW,
            resilience=ResilienceConfig(checkpoint_every=2),
        )
        result = GSAPPartitioner(config, device=Device(A4000)).partition(
            graph, checkpoint_dir=tmp_path
        )
        plateaus = len(result.history) - 1
        # one every second plateau plus the final snapshot
        assert result.resilience.checkpoints_written == plateaus // 2 + 1
        assert load_run_checkpoint(tmp_path).plateau == plateaus
