"""Fault-injection and recovery tests (the resilience fault matrix).

Each fault class (``oom`` / ``kernel`` / ``stream``) is exercised
against each phase it can hit, through three outcomes:

* **retry-then-succeed** — a transient fault is absorbed and the final
  partition is bit-identical to the fault-free run;
* **degradation-then-succeed** — a persistent OOM walks the degradation
  ladder (batch halving, then blockmodel maintenance off the device) and
  still finishes;
* **retry-exhausted** — a persistent non-degradable fault surfaces as
  :class:`~repro.errors.RetryExhaustedError`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    GSAPPartitioner,
    ResilienceConfig,
    RetryExhaustedError,
    SBPConfig,
    install_fault_injector,
    load_dataset,
)
from repro.errors import (
    DeviceError,
    DeviceMemoryError,
    FaultInjected,
    KernelLaunchError,
    ReproError,
)
from repro.gpusim.device import A4000, Device, KernelCost
from repro.gpusim.curand import uniform_table
from repro.resilience.faults import (
    InjectedKernelFault,
    InjectedMemoryFault,
    InjectedStreamFault,
)
from repro.resilience.retry import (
    FaultBudget,
    ResilienceStats,
    RetryPolicy,
    with_retries,
)

pytestmark = pytest.mark.faults

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# plan / spec plumbing
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="cosmic_ray")

    def test_negative_index_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="oom", at=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="kernel", count=0)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            kind="oom", at=7, count=2, phase="vertex_move", min_bytes=512
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kind", ["msg_drop", "msg_duplicate", "msg_reorder", "msg_corrupt"]
    )
    def test_message_kinds_accepted(self, kind):
        spec = FaultSpec(kind=kind, at=3, count=2, rank=1)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_rank_crash_requires_a_rank(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="rank_crash", at=5)
        spec = FaultSpec(kind="rank_crash", at=5, rank=2)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_negative_rank_rejected(self):
        with pytest.raises(ReproError):
            FaultSpec(kind="msg_drop", rank=-1)

    def test_rank_defaults_to_every_sender(self):
        spec = FaultSpec(kind="msg_corrupt", at=0)
        assert spec.rank is None
        assert FaultSpec.from_dict(spec.to_dict()).rank is None


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="kernel", at=5, phase="block_merge"),
                FaultSpec(kind="oom", at=0, min_bytes=4096),
            ),
            seed=99,
        )
        path = plan.save_json(tmp_path / "plan.json")
        assert FaultPlan.from_json_file(path) == plan

    def test_retired_transfer_stall_rejected(self, tmp_path):
        """A kind no device hook fires is rejected, naming the valid
        kinds, instead of planning a fault that never happens."""
        with pytest.raises(ReproError, match="expected one of") as err:
            FaultSpec(kind="transfer_stall")
        for kind in ("oom", "kernel", "stream"):
            assert repr(kind) in str(err.value)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 0,
            "faults": [{"kind": "transfer_stall", "at": 0, "stall_s": 0.5}],
        }))
        with pytest.raises(ReproError, match="transfer_stall"):
            FaultPlan.from_json_file(path)

    def test_plan_saved_with_stall_s_still_loads(self, tmp_path):
        # plans written by older versions carry a ``stall_s`` field
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 4,
            "faults": [{
                "kind": "kernel", "at": 5, "count": 2,
                "phase": "block_merge", "min_bytes": 0, "stall_s": 0.0,
                "target": None, "index": 0, "bit": 0, "value": -1.0,
                "rank": None,
            }],
        }))
        plan = FaultPlan.from_json_file(path)
        assert plan == FaultPlan(
            faults=(FaultSpec(kind="kernel", at=5, count=2,
                              phase="block_merge"),),
            seed=4,
        )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            FaultPlan.from_json_file(tmp_path / "nope.json")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [')
        with pytest.raises(ReproError):
            FaultPlan.from_json_file(path)

    def test_faults_must_be_a_list(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": "all of them"}))
        with pytest.raises(ReproError):
            FaultPlan.from_json_file(path)

    def test_seeded_random_is_deterministic(self):
        a = FaultPlan.seeded_random(3, num_faults=5)
        b = FaultPlan.seeded_random(3, num_faults=5)
        assert a == b
        assert len(a) == 5
        assert FaultPlan.seeded_random(4, num_faults=5) != a

    def test_comm_fault_plan_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="msg_drop", at=3, count=2, rank=0),
                FaultSpec(kind="msg_corrupt", at=10, phase="moves",
                          index=17, bit=3),
                FaultSpec(kind="rank_crash", at=6, rank=2),
            ),
            seed=5,
        )
        path = plan.save_json(tmp_path / "comm_plan.json")
        assert FaultPlan.from_json_file(path) == plan


class TestCommFaultDeterminismAndBudget:
    """The communication fault kinds share the resilience machinery:
    injection is deterministic under a fixed seed and every absorbed
    fault is charged to the run's :class:`FaultBudget`."""

    def _exchange_rounds(self, plan, seed, budget, rounds=3):
        from repro.dist import Communicator, DistStats, pack_moves
        from repro.errors import CommError

        comm = Communicator(
            3, plan=plan, seed=seed,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=1e-4,
                                     jitter=0.1, retry_on=(CommError,)),
            budget=budget, stats=DistStats(),
        )
        outcomes = []
        for r in range(rounds):
            payloads = {rank: pack_moves([(rank + 3 * r, 0, 1)])
                        for rank in sorted(comm.live)}
            outcomes.append(comm.exchange(payloads).delivered)
        return outcomes, comm.stats.to_dict(), comm.sim_time_s

    def test_fixed_seed_reproduces_the_run(self):
        plan = FaultPlan([
            FaultSpec(kind="msg_drop", at=1, count=2),
            FaultSpec(kind="msg_reorder", at=0, count=3),
        ])
        a = self._exchange_rounds(plan, seed=11, budget=FaultBudget(32))
        b = self._exchange_rounds(plan, seed=11, budget=FaultBudget(32))
        assert a == b

    def test_absorbed_comm_faults_charge_the_budget(self):
        plan = FaultPlan([FaultSpec(kind="msg_drop", at=0, count=3)])
        budget = FaultBudget(32)
        _, stats, sim_time = self._exchange_rounds(plan, 7, budget)
        assert stats["dropped_frames"] == 3
        assert stats["retransmits"] >= 3
        assert budget.consumed >= 3
        assert sim_time > 0  # backoff on the simulated clock

    def test_budget_exhaustion_stops_the_exchange(self):
        plan = FaultPlan([FaultSpec(kind="msg_drop", at=0, count=10**6)])
        with pytest.raises(RetryExhaustedError):
            self._exchange_rounds(plan, 7, FaultBudget(0))


# ----------------------------------------------------------------------
# retry machinery
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, backoff_factor=2.0, max_delay_s=0.3, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_for_attempt(k, rng) for k in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            base_delay_s=0.1, backoff_factor=1.0, max_delay_s=1.0, jitter=0.5
        )
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert 0.05 <= policy.delay_for_attempt(1, rng) <= 0.15


class TestWithRetries:
    def test_first_try_success_touches_nothing(self):
        stats = ResilienceStats()
        out = with_retries(lambda attempt: attempt, RetryPolicy(), stats=stats)
        assert out == 0
        assert stats.faults_absorbed == 0

    def test_retries_then_succeeds(self):
        stats = ResilienceStats()
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise DeviceMemoryError("transient")
            return "ok"

        out = with_retries(
            flaky, RetryPolicy(max_attempts=3), stats=stats
        )
        assert out == "ok"
        assert calls == [0, 1, 2]
        assert stats.faults_absorbed == 2
        assert stats.retries == 2
        assert stats.faults_by_kind == {"DeviceMemoryError": 2}

    def test_exhaustion_carries_last_error(self):
        boom = KernelLaunchError("persistent")
        with pytest.raises(RetryExhaustedError) as err:
            with_retries(
                lambda _: (_ for _ in ()).throw(boom),
                RetryPolicy(max_attempts=3),
            )
        assert err.value.last_error is boom
        assert err.value.attempts == 3

    def test_non_retryable_propagates_untouched(self):
        with pytest.raises(ZeroDivisionError):
            with_retries(lambda _: 1 // 0, RetryPolicy(max_attempts=5))

    def test_budget_blown_fails_fast(self):
        budget = FaultBudget(1)
        calls = []

        def always_fails(attempt):
            calls.append(attempt)
            raise DeviceError("again")

        with pytest.raises(RetryExhaustedError):
            with_retries(
                always_fails, RetryPolicy(max_attempts=10), budget=budget
            )
        assert calls == [0, 1]  # budget of 1 stops the 10-attempt policy

    def test_backoff_sleeps_are_recorded(self):
        slept = []
        stats = ResilienceStats()

        def flaky(attempt):
            if attempt == 0:
                raise DeviceError("once")
            return attempt

        with_retries(
            flaky,
            RetryPolicy(base_delay_s=0.05, jitter=0.0, max_attempts=2),
            stats=stats,
            sleep=slept.append,
        )
        assert slept == pytest.approx([0.05])
        assert stats.backoff_s == pytest.approx(0.05)


class TestFaultBudget:
    def test_remaining_counts_down(self):
        budget = FaultBudget(2)
        budget.consume(DeviceError("a"))
        assert budget.remaining == 1
        budget.consume(DeviceError("b"))
        assert budget.remaining == 0
        with pytest.raises(RetryExhaustedError):
            budget.consume(DeviceError("c"))

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            FaultBudget(-1)


class TestResilienceStats:
    def test_dict_round_trip(self):
        stats = ResilienceStats()
        stats.record_fault(DeviceMemoryError("x"))
        stats.record_degradation("halved batches")
        stats.retries = 1
        stats.checkpoints_written = 2
        stats.resumed_from = "/tmp/ck"
        assert ResilienceStats.from_dict(stats.to_dict()) == stats


# ----------------------------------------------------------------------
# injector semantics against a bare device
# ----------------------------------------------------------------------
def _launch(device, nbytes=8):
    device.execute("k", KernelCost(work_items=1, bytes_moved=nbytes),
                   lambda: None)


class TestInjectorHooks:
    def test_oom_fires_at_planned_kernel_index(self, device):
        install_fault_injector(
            device, FaultPlan(faults=(FaultSpec(kind="oom", at=1),))
        )
        _launch(device)  # index 0: clean
        with pytest.raises(InjectedMemoryFault):
            _launch(device)  # index 1: boom
        _launch(device)  # index 2: clean again

    def test_injected_faults_look_like_real_ones(self, device):
        injector = install_fault_injector(
            device, FaultPlan(faults=(FaultSpec(kind="oom", at=0),))
        )
        with pytest.raises(DeviceMemoryError):
            _launch(device)
        assert isinstance(injector.log[0].detail, str)
        assert injector.fired_by_kind() == {"oom": 1}

    def test_min_bytes_filters_small_kernels(self, device):
        install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind="oom", at=0, count=10**6,
                                        min_bytes=1000),)),
        )
        _launch(device, nbytes=999)  # below threshold: survives
        with pytest.raises(InjectedMemoryFault):
            _launch(device, nbytes=1000)

    def test_kernel_fault_respects_phase_filter(self, device):
        install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind="kernel", at=0, count=10**6,
                                        phase="vertex_move"),)),
        )
        cost = KernelCost(work_items=4)
        device.execute("k", cost, lambda: 1, phase="block_merge")  # unaffected
        with pytest.raises(InjectedKernelFault):
            device.execute("k", cost, lambda: 1, phase="vertex_move")

    def test_stream_fault_fires_from_launch(self, device):
        install_fault_injector(
            device, FaultPlan(faults=(FaultSpec(kind="stream", at=0),))
        )
        with pytest.raises(InjectedStreamFault):
            uniform_table(device, np.random.default_rng(0), 4)

    def test_firing_order_ignores_hash_seed(self):
        """Two specs reaching ``at`` on one launch fire in plan order.

        The unfiltered spec counts launch #2 and the phase-filtered one
        its own launch #1 on the same third launch; which one is logged
        must not depend on ``PYTHONHASHSEED``.
        """
        script = (
            "from repro.resilience.faults import *\n"
            "inj = FaultInjector(FaultPlan(faults=(\n"
            "    FaultSpec(kind='kernel', at=2),\n"
            "    FaultSpec(kind='kernel', at=1, phase='vertex_move'))))\n"
            "for phase in ('block_merge', 'vertex_move', 'vertex_move'):\n"
            "    try:\n"
            "        inj.on_kernel('k', phase, 0)\n"
            "    except InjectedKernelFault:\n"
            "        pass\n"
            "print([(e.kind, e.op_index, e.phase) for e in inj.log])\n"
        )
        logs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            logs.append(done.stdout)
        assert logs[0] == logs[1]
        assert logs[0].strip() == "[('kernel', 2, 'vertex_move')]"

    def test_reset_clears_counters_and_log(self, device):
        injector = install_fault_injector(
            device, FaultPlan(faults=(FaultSpec(kind="oom", at=0),))
        )
        with pytest.raises(InjectedMemoryFault):
            _launch(device)
        injector.reset()
        with pytest.raises(InjectedMemoryFault):
            _launch(device)  # counter rewound: index 0 fires again
        assert injector.faults_fired == 1


# ----------------------------------------------------------------------
# full-run fault matrix
# ----------------------------------------------------------------------
GRAPH_ARGS = ("low_low", 120)
BASE_KW = dict(
    max_num_nodal_itr=10,
    delta_entropy_threshold1=5e-3,
    delta_entropy_threshold2=1e-3,
    seed=9,
)


def _vertex_move_oom(ref_device: Device) -> FaultPlan:
    """A persistent OOM on every vertex-move kernel moving at least 60%
    of the largest one's bytes in the fault-free run on *ref_device*."""
    vm_bytes = [
        r.bytes_moved
        for r in ref_device.profiler.kernel_records
        if r.phase == "vertex_move"
    ]
    return FaultPlan(faults=(FaultSpec(kind="oom", at=0, count=10**9,
                                       phase="vertex_move",
                                       min_bytes=int(max(vm_bytes) * 0.6)),))


def _config(**resilience_kw) -> SBPConfig:
    defaults = dict(base_delay_s=0.0)
    defaults.update(resilience_kw)
    return SBPConfig(**BASE_KW, resilience=ResilienceConfig(**defaults))


@pytest.fixture(scope="module")
def matrix_graph():
    graph, _ = load_dataset(*GRAPH_ARGS, seed=1)
    return graph


@pytest.fixture(scope="module")
def baseline(matrix_graph):
    """Fault-free reference run (and its device, for kernel byte sizes)."""
    device = Device(A4000)
    result = GSAPPartitioner(_config(), device=device).partition(matrix_graph)
    return result, device


class TestFaultMatrix:
    """Each raising fault class x each phase: absorb and match baseline."""

    @pytest.mark.parametrize("kind", ["kernel", "oom", "stream"])
    @pytest.mark.parametrize("phase", ["block_merge", "vertex_move"])
    def test_transient_fault_is_absorbed(
        self, matrix_graph, baseline, kind, phase
    ):
        ref, _ = baseline
        device = Device(A4000)
        injector = install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind=kind, at=1, phase=phase),)),
        )
        result = GSAPPartitioner(_config(), device=device).partition(
            matrix_graph
        )
        assert injector.faults_fired == 1, "planned fault never fired"
        assert result.resilience.faults_absorbed == 1
        assert result.resilience.retries >= 1
        np.testing.assert_array_equal(result.partition, ref.partition)
        assert result.mdl == ref.mdl
        assert result.history == ref.history

    @pytest.mark.parametrize("kind", ["kernel", "oom", "stream"])
    def test_persistent_fault_exhausts_retries(self, matrix_graph, kind):
        device = Device(A4000)
        install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind=kind, at=0, count=10**6),)),
        )
        config = _config(max_attempts=2, degrade_on_oom=False)
        with pytest.raises(RetryExhaustedError) as err:
            GSAPPartitioner(config, device=device).partition(matrix_graph)
        assert isinstance(err.value.last_error, FaultInjected)

    def test_fault_budget_caps_the_whole_run(self, matrix_graph):
        device = Device(A4000)
        install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind="kernel", at=0, count=10**6),)),
        )
        config = _config(max_attempts=10, fault_budget=2)
        with pytest.raises(RetryExhaustedError) as err:
            GSAPPartitioner(config, device=device).partition(matrix_graph)
        assert err.value.attempts == 3  # the fault that blew the budget


class TestDegradationLadder:
    def test_persistent_oom_degrades_then_succeeds(
        self, matrix_graph, baseline
    ):
        _, ref_device = baseline
        vm_bytes = [
            r.bytes_moved
            for r in ref_device.profiler.kernel_records
            if r.phase == "vertex_move"
        ]
        threshold = int(max(vm_bytes) * 0.6)

        device = Device(A4000)
        injector = install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind="oom", at=0, count=10**9,
                                        phase="vertex_move",
                                        min_bytes=threshold),)),
        )
        config = _config(max_attempts=2, fault_budget=200)
        result = GSAPPartitioner(config, device=device).partition(matrix_graph)
        assert injector.faults_fired > 0
        assert result.resilience.degradations, "ladder never engaged"
        assert any(
            "halved" in event for event in result.resilience.degradations
        )
        assert len(result.partition) == matrix_graph.num_vertices
        assert np.isfinite(result.mdl)

    def test_degradation_disabled_raises_instead(self, matrix_graph, baseline):
        _, ref_device = baseline
        vm_bytes = [
            r.bytes_moved
            for r in ref_device.profiler.kernel_records
            if r.phase == "vertex_move"
        ]
        device = Device(A4000)
        install_fault_injector(
            device,
            FaultPlan(faults=(FaultSpec(kind="oom", at=0, count=10**9,
                                        phase="vertex_move",
                                        min_bytes=int(max(vm_bytes) * 0.6)),)),
        )
        config = _config(max_attempts=2, fault_budget=200,
                         degrade_on_oom=False)
        with pytest.raises(RetryExhaustedError):
            GSAPPartitioner(config, device=device).partition(matrix_graph)


    @pytest.mark.parametrize("category", ["low_low", "high_high"])
    def test_host_rung_is_one_step_and_exact(self, category):
        """With no batch halvings left, the first degradation moves the
        blockmodel maintenance off the device, and the run ends exactly
        where the fault-free run does."""
        graph, _ = load_dataset(category, 120, seed=1)
        config = _config(max_attempts=2, fault_budget=200,
                         max_batch_halvings=0)
        ref_device = Device(A4000)
        ref = GSAPPartitioner(config, device=ref_device).partition(graph)

        device = Device(A4000)
        injector = install_fault_injector(device, _vertex_move_oom(ref_device))
        result = GSAPPartitioner(config, device=device).partition(graph)
        assert injector.faults_fired > 0
        assert len(result.resilience.degradations) == 1
        assert "off the device" in result.resilience.degradations[0]
        np.testing.assert_array_equal(result.partition, ref.partition)
        assert result.mdl == ref.mdl


class TestAcceptance:
    def test_multi_fault_storm_matches_fault_free_run(self, matrix_graph):
        """The issue's acceptance gate: >= 3 faults across both phases,
        identical final partition."""
        config = _config(max_attempts=5)
        ref = GSAPPartitioner(config, device=Device(A4000)).partition(
            matrix_graph
        )

        device = Device(A4000)
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="kernel", at=5, phase="block_merge"),
                FaultSpec(kind="kernel", at=40, count=2, phase="vertex_move"),
                FaultSpec(kind="stream", at=3, phase="block_merge"),
                # past plateau 0, which already absorbs four faults
                # (max_attempts=5)
                FaultSpec(kind="oom", at=600),
            )
        )
        injector = install_fault_injector(device, plan)
        result = GSAPPartitioner(config, device=device).partition(matrix_graph)

        fired = injector.fired_by_kind()
        assert set(fired) == {"kernel", "stream", "oom"}, fired
        assert injector.faults_fired >= 3
        phases_hit = {e.phase for e in injector.log if e.phase}
        assert {"block_merge", "vertex_move"} <= phases_hit
        np.testing.assert_array_equal(result.partition, ref.partition)
        assert result.mdl == ref.mdl
        assert result.history == ref.history
        assert result.resilience.faults_absorbed >= 3
