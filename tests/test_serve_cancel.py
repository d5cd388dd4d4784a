"""Cooperative cancellation: tokens, deadlines, checkpoint-on-cancel.

The contract under test: a fired :class:`~repro.serve.CancelToken`
stops the run at the next plateau/sweep boundary, returns the best
partition found so far (marked with its cancellation reason), persists
a resumable checkpoint past the progress threshold — and a resumed run
finishes with the *byte-identical* partition an uninterrupted run
produces (partial plateaus are discarded, so resume is deterministic).
"""

import time

import numpy as np
import pytest

from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.errors import RunCancelled
from repro.graph.datasets import load_dataset
from repro.serve import (
    REASON_CANCELLED,
    REASON_DEADLINE,
    REASON_SHUTDOWN,
    CancelToken,
)


class TestCancelToken:
    def test_fresh_token_is_clean(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.reason is None
        assert token.remaining_s() is None
        token.check("anywhere")  # must not raise

    def test_explicit_cancel_sets_reason_once(self):
        token = CancelToken()
        token.cancel(REASON_SHUTDOWN)
        token.cancel(REASON_CANCELLED)  # first reason wins
        assert token.cancelled
        assert token.reason == REASON_SHUTDOWN
        with pytest.raises(RunCancelled) as err:
            token.check("plateau")
        assert err.value.reason == REASON_SHUTDOWN
        assert err.value.where == "plateau"

    def test_deadline_promotes_to_deadline_reason(self):
        clock = {"now": 0.0}
        token = CancelToken(deadline_s=5.0, clock=lambda: clock["now"])
        assert not token.cancelled
        assert token.remaining_s() == pytest.approx(5.0)
        clock["now"] = 5.1
        assert token.cancelled
        assert token.reason == REASON_DEADLINE
        assert token.remaining_s() == 0.0

    def test_zero_deadline_fires_immediately(self):
        token = CancelToken(deadline_s=0.0, clock=time.monotonic)
        with pytest.raises(RunCancelled) as err:
            token.check("sweep")
        assert err.value.reason == REASON_DEADLINE


@pytest.fixture(scope="module")
def graph():
    return load_dataset("low_low", 200, seed=0)[0]


class TestPartitionerCancellation:
    def test_zero_deadline_returns_singleton_best_effort(self, graph):
        result = GSAPPartitioner(SBPConfig(seed=3)).partition(
            graph, cancel=CancelToken(deadline_s=0.0)
        )
        # cancelled before any plateau: best-so-far is the singleton
        # partition the search is seeded with
        assert result.num_blocks == graph.num_vertices
        assert result.cancelled == "deadline"
        assert result.timed_out
        assert not result.converged

    def test_mid_run_deadline_returns_partial_progress(self, graph):
        clock = {"now": 0.0}
        token = CancelToken(deadline_s=10.0, clock=lambda: clock["now"])
        fired = {"after": 2}

        original_check = token.check

        def firing_check(where=""):
            if where == "plateau":
                fired["after"] -= 1
                if fired["after"] < 0:
                    clock["now"] = 100.0  # deadline now in the past
            original_check(where)

        token.check = firing_check
        result = GSAPPartitioner(SBPConfig(seed=3)).partition(
            graph, cancel=token
        )
        assert result.timed_out
        # two plateaus of merging happened: strictly fewer blocks than
        # the singleton start, but the search had not converged
        assert result.num_blocks < graph.num_vertices
        assert not result.converged

    def test_cancel_checkpoint_resume_matches_uninterrupted(
        self, graph, tmp_path
    ):
        config = SBPConfig(seed=11)
        baseline = GSAPPartitioner(config).partition(graph)

        class FireAfterPlateaus(CancelToken):
            def __init__(self, plateaus, **kwargs):
                super().__init__(**kwargs)
                self._fuse = plateaus

            def check(self, where=""):
                if where == "plateau":
                    self._fuse -= 1
                    if self._fuse < 0:
                        self.cancel(REASON_CANCELLED)
                super().check(where)

        ckpt = tmp_path / "cancelled-run"
        token = FireAfterPlateaus(3, checkpoint_dir=ckpt)
        partial = GSAPPartitioner(config).partition(graph, cancel=token)
        assert partial.cancelled == REASON_CANCELLED
        assert (ckpt / "run.json").exists(), "no checkpoint persisted"

        resumed = GSAPPartitioner(config).partition(
            graph, resume_from=ckpt
        )
        assert resumed.converged
        assert resumed.partition.tobytes() == baseline.partition.tobytes()
        assert resumed.mdl == pytest.approx(baseline.mdl)

    def test_below_progress_threshold_no_checkpoint(self, graph, tmp_path):
        ckpt = tmp_path / "no-progress"
        token = CancelToken(deadline_s=0.0, checkpoint_dir=ckpt)
        result = GSAPPartitioner(SBPConfig(seed=3)).partition(
            graph, cancel=token
        )
        assert result.timed_out
        # zero plateaus completed: a checkpoint would be pure overhead
        assert not (ckpt / "run.json").exists()

    def test_cancelled_flag_survives_result_roundtrip(self, graph, tmp_path):
        from repro.checkpoint import load_result, save_result

        result = GSAPPartitioner(SBPConfig(seed=3)).partition(
            graph, cancel=CancelToken(deadline_s=0.0)
        )
        save_result(result, tmp_path / "res")
        loaded = load_result(tmp_path / "res")
        assert loaded.cancelled == "deadline"
        assert loaded.timed_out
        assert np.array_equal(loaded.partition, result.partition)


class TestCliInterruptAndDeadline:
    """``gsap partition``: Ctrl-C persistence and ``--deadline-s``."""

    @pytest.fixture
    def edges(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "g.tsv"
        assert main([
            "generate", "--category", "low_low", "--vertices", "200",
            "--seed", "7", "--out", str(path),
        ]) == 0
        return str(path)

    def test_interrupt_writes_final_checkpoint_and_exits_130(
        self, edges, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.core import partitioner as partitioner_mod

        ckpt = tmp_path / "ckpt"
        original = partitioner_mod.GSAPPartitioner._run_plateau_resilient
        calls = {"n": 0}

        def interrupting(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            partitioner_mod.GSAPPartitioner, "_run_plateau_resilient",
            interrupting,
        )
        code = main([
            "partition", edges, "--seed", "7", "--checkpoint", str(ckpt),
            "--checkpoint-every", "100",  # interrupt flush, not cadence
        ])
        assert code == 130
        assert "resume with --resume" in capsys.readouterr().err
        assert (ckpt / "run.json").exists(), (
            "interrupt did not flush a final checkpoint"
        )

        # the checkpoint must actually be resumable — and finish with
        # the exact partition an uninterrupted run produces
        monkeypatch.setattr(
            partitioner_mod.GSAPPartitioner, "_run_plateau_resilient",
            original,
        )
        assert main([
            "partition", edges, "--seed", "7", "--resume", str(ckpt),
            "--out", str(tmp_path / "resumed.tsv"),
        ]) == 0
        assert main([
            "partition", edges, "--seed", "7",
            "--out", str(tmp_path / "direct.tsv"),
        ]) == 0
        assert (
            (tmp_path / "resumed.tsv").read_text()
            == (tmp_path / "direct.tsv").read_text()
        )

    def test_interrupt_without_checkpoint_still_exits_130(
        self, edges, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.core import partitioner as partitioner_mod

        def interrupting(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            partitioner_mod.GSAPPartitioner, "_run_plateau_resilient",
            interrupting,
        )
        assert main(["partition", edges, "--seed", "7"]) == 130
        assert "progress discarded" in capsys.readouterr().err

    def test_deadline_flag_marks_run_report(self, edges, tmp_path, capsys):
        import json

        from repro.cli import main

        report_path = tmp_path / "report.json"
        assert main([
            "partition", edges, "--seed", "7", "--deadline-s", "0",
            "--run-report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "TIMED OUT" in out
        run = json.loads(report_path.read_text())["run"]
        assert run["timed_out"] is True
        assert run["cancelled"] == "deadline"
        assert run["converged"] is False

    def test_deadline_flag_rejected_for_baselines(self, edges, capsys):
        from repro.cli import main

        assert main([
            "partition", edges, "--algo", "reference", "--deadline-s", "1",
        ]) == 2
        assert "--deadline-s" in capsys.readouterr().err
