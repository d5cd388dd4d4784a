"""End-to-end observability tests: span hierarchy of a real run,
counter agreement with phase outcomes, determinism, checkpoint
survival, and device bridging."""

import json

import numpy as np
import pytest

from repro.blockmodel.update import rebuild_blockmodel
from repro.core.partitioner import GSAPPartitioner
from repro.core.vertex_move import run_vertex_move_phase
from repro.gpusim.device import A4000, Device, KernelCost
from repro.obs import Observability
from repro.types import INDEX_DTYPE


@pytest.fixture
def obs_config(fast_config):
    return fast_config.replace(
        observability=fast_config.observability.replace(enabled=True)
    )


class TestRunSpans:
    def test_full_run_records_nested_hierarchy(self, small_graph, obs_config):
        partitioner = GSAPPartitioner(obs_config, device=Device(A4000))
        result = partitioner.partition(small_graph)
        spans = partitioner.obs.tracer.spans()
        by_cat = {}
        for s in spans:
            by_cat.setdefault(s.category, []).append(s)

        # one root run span containing everything
        (run,) = by_cat["run"]
        assert run.depth == 0 and run.parent is None
        assert run.args["num_blocks"] == result.num_blocks

        # run → plateau → phase → kernel chain
        assert len(by_cat["plateau"]) == len(result.history) - 1
        for plateau in by_cat["plateau"]:
            assert plateau.parent == run.index
        phase_names = {s.name for s in by_cat["phase"]}
        assert {"block_merge", "vertex_move", "golden_section"} <= phase_names
        for phase in by_cat["phase"]:
            assert spans[phase.parent].category == "plateau"
        assert by_cat["kernel"], "device kernels should bridge into the trace"
        kernel_parents = {spans[k.parent].category for k in by_cat["kernel"]
                          if k.parent is not None}
        # "run" covers the initial singleton rebuild, before any plateau
        assert kernel_parents <= {"run", "phase", "round", "sweep"}

        # every closed span is contained in its parent
        for s in spans:
            if s.parent is not None and s.duration_s is not None:
                parent = spans[s.parent]
                assert s.start_s >= parent.start_s - 1e-9
                assert s.end_s <= parent.end_s + 1e-9

    def test_trace_exports_to_valid_chrome_json(self, small_graph, obs_config,
                                                tmp_path):
        from repro.obs import write_chrome_trace

        partitioner = GSAPPartitioner(obs_config, device=Device(A4000))
        partitioner.partition(small_graph)
        path = write_chrome_trace(partitioner.obs.tracer,
                                  tmp_path / "run.trace.json")
        payload = json.loads(path.read_text())
        spans = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == len(partitioner.obs.tracer.spans())
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}

    def test_mdl_series_matches_history(self, small_graph, obs_config):
        partitioner = GSAPPartitioner(obs_config, device=Device(A4000))
        result = partitioner.partition(small_graph)
        mdl_series = partitioner.obs.metrics.series("mdl_per_plateau").points
        blocks_series = partitioner.obs.metrics.series("blocks_per_plateau").points
        assert [v for _, v in mdl_series] == [m for _, m in result.history]
        assert [int(v) for _, v in blocks_series] == [b for b, _ in result.history]


class TestCounterAgreement:
    def test_acceptance_counters_match_outcome(self, small_graph, fast_config,
                                               rng):
        """The MH acceptance counters must agree with the phase outcome's
        own hand-counted totals."""
        device = Device(A4000)
        n = small_graph.num_vertices
        bmap = np.arange(n, dtype=INDEX_DTYPE)
        blockmodel = rebuild_blockmodel(device, small_graph, bmap, n, "t")
        obs = Observability(enabled=True)
        outcome = run_vertex_move_phase(
            device, small_graph, blockmodel, bmap, fast_config, rng,
            threshold=1e-2, obs=obs,
        )
        assert obs.metrics.counter("mcmc_proposals_total").value == \
            outcome.num_proposals
        assert obs.metrics.counter("mcmc_moves_accepted_total").value == \
            outcome.num_moves_accepted
        assert obs.metrics.histogram("mcmc_delta_mdl").count == \
            outcome.num_proposals
        rate = (obs.metrics.counter("mcmc_moves_accepted_total").value
                / obs.metrics.counter("mcmc_proposals_total").value)
        assert 0.0 <= rate <= 1.0

    def test_final_gauges_match_result(self, small_graph, obs_config):
        partitioner = GSAPPartitioner(obs_config, device=Device(A4000))
        result = partitioner.partition(small_graph)
        metrics = partitioner.obs.metrics
        assert metrics.gauge("final_mdl").value == pytest.approx(result.mdl)
        assert metrics.gauge("final_num_blocks").value == result.num_blocks
        assert metrics.gauge("num_sweeps").value == result.num_sweeps


class TestDeterminism:
    def test_tracing_does_not_change_the_partition(self, small_graph,
                                                   fast_config):
        """Bit-identical partitions with observability on vs off — the
        instrumentation never consumes RNG draws."""
        off = GSAPPartitioner(fast_config, device=Device(A4000)).partition(
            small_graph
        )
        on_config = fast_config.replace(
            observability=fast_config.observability.replace(enabled=True)
        )
        on = GSAPPartitioner(on_config, device=Device(A4000)).partition(
            small_graph
        )
        np.testing.assert_array_equal(off.partition, on.partition)
        assert off.mdl == on.mdl
        assert off.history == on.history

    def test_disabled_obs_records_nothing(self, small_graph, fast_config):
        partitioner = GSAPPartitioner(fast_config, device=Device(A4000))
        partitioner.partition(small_graph)
        assert partitioner.obs.tracer.spans() == []
        assert len(partitioner.obs.metrics) == 0


class TestCheckpointSurvival:
    def test_obs_state_rides_in_checkpoint(self, small_graph, obs_config,
                                           tmp_path):
        from repro.checkpoint import load_run_checkpoint

        partitioner = GSAPPartitioner(obs_config, device=Device(A4000))
        partitioner.partition(small_graph, checkpoint_dir=tmp_path)
        ck = load_run_checkpoint(tmp_path)
        assert ck.observability, "enabled obs state should be checkpointed"
        assert "tracer" in ck.observability
        assert "metrics" in ck.observability

        restored = Observability(enabled=True)
        restored.load_state(ck.observability)
        original = partitioner.obs
        assert restored.metrics.counter("mcmc_proposals_total").value == \
            original.metrics.counter("mcmc_proposals_total").value
        assert len(restored.tracer.spans()) > 0

    def test_resumed_run_keeps_whole_run_telemetry(self, small_graph,
                                                   obs_config, tmp_path):
        first = GSAPPartitioner(obs_config, device=Device(A4000))
        full = first.partition(small_graph, checkpoint_dir=tmp_path)
        saved_proposals = first.obs.metrics.counter(
            "mcmc_proposals_total").value

        # resuming the finished run is a no-op continue, but the resumed
        # partitioner must carry the *whole* run's telemetry forward
        second = GSAPPartitioner(obs_config, device=Device(A4000))
        resumed = second.partition(small_graph, resume_from=tmp_path)
        np.testing.assert_array_equal(resumed.partition, full.partition)
        assert second.obs.metrics.counter("mcmc_proposals_total").value == \
            saved_proposals
        assert len(second.obs.tracer.spans()) > 0

    def test_disabled_obs_writes_empty_state(self, small_graph, fast_config,
                                             tmp_path):
        from repro.checkpoint import load_run_checkpoint

        GSAPPartitioner(fast_config, device=Device(A4000)).partition(
            small_graph, checkpoint_dir=tmp_path
        )
        assert load_run_checkpoint(tmp_path).observability == {}


class TestDeviceBridge:
    def test_kernel_launches_become_trace_spans(self, device):
        obs = Observability(enabled=True)
        with obs.attach_device(device):
            device.execute("my_kernel", KernelCost(work_items=64),
                           lambda: None, phase="vertex_move")
        (span,) = obs.tracer.spans()
        assert span.name == "my_kernel"
        assert span.category == "kernel"
        assert span.args["phase"] == "vertex_move"
        assert span.args["work_items"] == 64

    def test_attach_restores_previous_tracer(self, device):
        obs = Observability(enabled=True)
        with obs.attach_device(device):
            assert device.tracer is obs.tracer
        assert device.tracer is None


class TestCli:
    @pytest.fixture
    def edges_file(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "g.tsv"
        assert main([
            "generate", "--category", "low_low", "--vertices", "150",
            "--seed", "1", "--out", str(out),
        ]) == 0
        return out

    def test_partition_trace_and_report_flags(self, edges_file, tmp_path,
                                              capsys):
        from repro.cli import main

        trace = tmp_path / "run.trace.json"
        prom = tmp_path / "metrics.prom"
        report = tmp_path / "report.json"
        code = main([
            "partition", str(edges_file), "--seed", "1",
            "--trace-out", str(trace),
            "--metrics-out", str(prom),
            "--run-report", str(report),
        ])
        assert code == 0
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert any(e.get("cat") == "run" for e in payload["traceEvents"])
        assert "gsap_final_mdl" in prom.read_text()
        rep = json.loads(report.read_text())
        assert rep["schema"] == "gsap-run-report/1"
        # acceptance gate: report phase totals track PhaseTimings within 1%
        assert rep["phase_breakdown"]["total_s"] == pytest.approx(
            sum(p["seconds"] for p in rep["phase_breakdown"]["phases"]),
            rel=0.01,
        )

    def test_trace_flags_rejected_for_baselines(self, edges_file, tmp_path,
                                                capsys):
        from repro.cli import main

        code = main([
            "partition", str(edges_file), "--algo", "uSAP",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        assert code == 2
        assert "only supported" in capsys.readouterr().err

    def test_log_level_flag(self, edges_file, capsys):
        import logging

        from repro.cli import main
        from repro.logging_util import get_logger

        try:
            assert main([
                "--log-level", "debug", "info",
            ]) == 0
            logger = get_logger()
            assert logger.level == logging.DEBUG
            assert any(getattr(h, "_repro_managed", False)
                       for h in logger.handlers)
        finally:
            for h in list(get_logger().handlers):
                get_logger().removeHandler(h)
            get_logger().setLevel(logging.NOTSET)

    def test_log_json_emits_json_lines(self, capsys):
        import logging

        from repro.cli import main
        from repro.logging_util import get_logger

        try:
            assert main(["--log-json", "info"]) == 0
            get_logger().warning("hello %s", "world")
            err = capsys.readouterr().err
            line = [l for l in err.splitlines() if l.strip()][-1]
            record = json.loads(line)
            assert record["msg"] == "hello world"
            assert record["level"] == "warning"
        finally:
            for h in list(get_logger().handlers):
                get_logger().removeHandler(h)
            get_logger().setLevel(logging.NOTSET)
