"""The async job server: admission, deadlines, caching, degradation,
retries, and lossless shutdown.

No ``pytest-asyncio`` in the dependency set — each test drives its own
event loop with ``asyncio.run``.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.errors import AdmissionRejected, CheckpointCorruptError
from repro.graph.datasets import load_dataset
from repro.integrity import audit_blockmodel, reference_blockmodel
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (
    AdmissionController,
    DegradationLadder,
    OverloadDetector,
    PartitionServer,
    ServeConfig,
    load_parked_job,
)
from repro.serve.degradation import (
    CAPPED_MAX_SWEEPS,
    COARSE_THRESHOLD_FACTOR,
    MAX_LEVEL,
)
from repro.serve.job import JobSpec, park_job


@pytest.fixture(scope="module")
def graph():
    return load_dataset("low_low", 150, seed=0)[0]


@pytest.fixture(scope="module")
def graph2():
    return load_dataset("low_low", 150, seed=1)[0]


class TestAdmissionController:
    def test_queue_depth_gate(self):
        adm = AdmissionController(max_queue_depth=2)
        adm.try_admit(10)
        adm.try_admit(10)
        with pytest.raises(AdmissionRejected) as err:
            adm.try_admit(10)
        assert err.value.reason == "queue_depth"
        assert err.value.retry_after_s > 0
        adm.release(10)
        adm.try_admit(10)  # slot freed

    def test_inflight_bytes_gate_spares_empty_system(self):
        adm = AdmissionController(max_queue_depth=8, max_inflight_bytes=100)
        adm.try_admit(1000)  # oversized job into an empty system runs
        with pytest.raises(AdmissionRejected) as err:
            adm.try_admit(1)
        assert err.value.reason == "inflight_bytes"

    def test_retry_after_tracks_service_ewma(self):
        adm = AdmissionController(max_queue_depth=1)
        adm.try_admit(1)
        adm.release(1, service_s=2.0)
        adm.try_admit(1)
        with pytest.raises(AdmissionRejected) as err:
            adm.try_admit(1)
        assert err.value.retry_after_s == pytest.approx(2.0)

    def test_shed_factor_shrinks_capacity(self):
        adm = AdmissionController(max_queue_depth=8)
        adm.set_shed_factor(0.25)
        adm.try_admit(1)
        adm.try_admit(1)
        with pytest.raises(AdmissionRejected) as err:
            adm.try_admit(1)
        assert err.value.reason == "shed_load"


class TestOverloadDetector:
    def test_climbs_and_recovers_with_hysteresis(self):
        clock = {"now": 0.0}
        det = OverloadDetector(
            window=3, high_watermark=0.8, low_watermark=0.3,
            cooldown_s=1.0, clock=lambda: clock["now"],
        )
        # window not full: no transitions
        assert det.observe(1.0) == 0
        assert det.observe(1.0) == 0
        assert det.observe(1.0) == 1  # window full, mean 1.0 > 0.8
        # cooldown blocks an immediate second climb
        assert det.observe(1.0) == 1
        clock["now"] = 1.5
        assert det.observe(1.0) == 2
        # recovery: low pressure descends one rung per cooldown
        clock["now"] = 3.0
        det.observe(0.0)
        det.observe(0.0)
        assert det.observe(0.0) == 1
        clock["now"] = 4.5
        assert det.observe(0.0) == 0

    def test_level_never_exceeds_ladder(self):
        clock = {"now": 0.0}
        det = OverloadDetector(window=1, cooldown_s=0.0,
                               clock=lambda: clock["now"])
        for _ in range(MAX_LEVEL + 5):
            clock["now"] += 1.0
            level = det.observe(1.0)
        assert level == MAX_LEVEL


class TestDegradationLadder:
    def test_levels_progressively_shed_optional_work(self):
        ladder = DegradationLadder()
        base = SBPConfig(
            seed=0, integrity={"audit": True},
        )
        ladder.force(1)
        cfg, level = ladder.apply_config(base)
        assert level == 1 and not cfg.integrity.audit
        assert cfg.delta_entropy_threshold1 == base.delta_entropy_threshold1

        ladder.force(2)
        cfg, _ = ladder.apply_config(base)
        assert cfg.delta_entropy_threshold1 == pytest.approx(
            base.delta_entropy_threshold1 * COARSE_THRESHOLD_FACTOR
        )
        assert cfg.max_num_nodal_itr == base.max_num_nodal_itr

        ladder.force(3)
        cfg, _ = ladder.apply_config(base)
        assert cfg.max_num_nodal_itr == CAPPED_MAX_SWEEPS

        ladder.force(4)
        assert ladder.admission_shed_factor() < 1.0
        ladder.force(None)
        assert ladder.level == 0

    def test_degraded_config_still_validates(self):
        ladder = DegradationLadder()
        ladder.force(MAX_LEVEL)
        cfg, _ = ladder.apply_config(SBPConfig(seed=0))
        assert 0.0 < cfg.delta_entropy_threshold1 < 1.0  # SBPConfig invariant


class TestServerLifecycle:
    def test_completed_job_matches_direct_run(self, graph):
        config = SBPConfig(seed=5)

        async def run():
            async with PartitionServer(ServeConfig(workers=1)) as srv:
                return await srv.submit(graph, config)

        outcome = asyncio.run(run())
        direct = GSAPPartitioner(config).partition(graph)
        assert outcome.status == "completed"
        assert (
            outcome.result.partition.tobytes()
            == direct.partition.tobytes()
        )

    def test_cache_hit_and_counters(self, graph):
        async def run():
            async with PartitionServer(
                ServeConfig(workers=1, cache_capacity=4)
            ) as srv:
                first = await srv.submit(graph, SBPConfig(seed=5))
                second = await srv.submit(graph, SBPConfig(seed=5))
                other_seed = await srv.submit(graph, SBPConfig(seed=6))
                return first, second, other_seed, srv.stats(), srv.obs

        first, second, other, stats, obs = asyncio.run(run())
        assert not first.cache_hit and second.cache_hit
        assert not other.cache_hit  # config digest differs by seed
        assert (
            first.result.partition.tobytes()
            == second.result.partition.tobytes()
        )
        assert stats["cache"]["hits_total"] == 1
        assert stats["cache"]["misses_total"] == 2
        assert obs.counter_total("serve_cache_hits_total") == 1.0
        assert obs.counter_total("serve_cache_misses_total") == 2.0

    def test_single_flight_coalesces_concurrent_twins(self, graph):
        async def run():
            async with PartitionServer(
                ServeConfig(workers=1, cache_capacity=4)
            ) as srv:
                a, b, c = await asyncio.gather(
                    srv.submit(graph, SBPConfig(seed=5)),
                    srv.submit(graph, SBPConfig(seed=5)),
                    srv.submit(graph, SBPConfig(seed=5)),
                )
                return a, b, c, srv.stats(), srv.obs

        a, b, c, stats, obs = asyncio.run(run())
        outcomes = [a, b, c]
        computed = [o for o in outcomes if not o.cache_hit and not o.coalesced]
        shared = [o for o in outcomes if o.cache_hit or o.coalesced]
        assert len(computed) == 1 and len(shared) == 2
        assert all(
            o.result.partition.tobytes()
            == computed[0].result.partition.tobytes()
            for o in shared
        )
        coalesced_n = stats["singleflight_coalesced_total"]
        assert coalesced_n == len([o for o in outcomes if o.coalesced])
        assert obs.counter_total(
            "serve_singleflight_coalesced_total"
        ) == float(coalesced_n)

    def test_admission_rejection_with_workers_zero(self, graph):
        async def run():
            srv = PartitionServer(
                ServeConfig(workers=0, max_queue_depth=2, cache_capacity=0)
            )
            await srv.start()
            t1 = srv.submit_task(graph, SBPConfig(seed=1))
            t2 = srv.submit_task(graph, SBPConfig(seed=2))
            await asyncio.sleep(0)  # let both pass admission
            rejected = await srv.submit(graph, SBPConfig(seed=3))
            await srv.shutdown("checkpoint")
            return rejected, await t1, await t2

        rejected, o1, o2 = asyncio.run(run())
        assert rejected.status == "rejected"
        assert rejected.reject_reason == "queue_depth"
        assert rejected.retry_after_s > 0
        # accepted jobs were not lost: cancelled explicitly (no
        # checkpoint_root, so parking is off)
        assert {o1.status, o2.status} == {"cancelled"}

    def test_inflight_bytes_backpressure(self, graph):
        from repro.serve import graph_work_bytes

        cap = graph_work_bytes(graph) + 1  # fits one graph, not two

        async def run():
            srv = PartitionServer(
                ServeConfig(workers=0, max_queue_depth=8,
                            max_inflight_bytes=cap, cache_capacity=0)
            )
            await srv.start()
            t1 = srv.submit_task(graph, SBPConfig(seed=1))
            await asyncio.sleep(0)
            rejected = await srv.submit(graph, SBPConfig(seed=2))
            await srv.shutdown("checkpoint")
            await t1
            return rejected

        rejected = asyncio.run(run())
        assert rejected.status == "rejected"
        assert rejected.reject_reason == "inflight_bytes"

    def test_deadline_zero_times_out(self, graph):
        async def run():
            async with PartitionServer(ServeConfig(workers=1)) as srv:
                return await srv.submit(
                    graph, SBPConfig(seed=5), deadline_s=0.0
                )

        outcome = asyncio.run(run())
        assert outcome.status == "timed_out"

    def test_fault_injection_retries_then_completes(self, graph):
        def plan_factory(job, attempt):
            if attempt == 0:
                return FaultPlan(
                    faults=(FaultSpec(kind="kernel", at=0, count=10_000),)
                )
            return None

        async def run():
            srv = PartitionServer(
                ServeConfig(workers=1, retry_attempts=2,
                            retry_base_delay_s=0.0, fault_budget=64,
                            cache_capacity=0),
                fault_plan_factory=plan_factory,
                sleep=lambda s: None,
            )
            async with srv:
                return await srv.submit(graph, SBPConfig(seed=5))

        outcome = asyncio.run(run())
        assert outcome.status == "completed"
        assert outcome.retries == 1

    def test_persistent_fault_exhausts_and_fails_explicitly(self, graph):
        def plan_factory(job, attempt):
            return FaultPlan(
                faults=(FaultSpec(kind="kernel", at=0, count=10_000),)
            )

        async def run():
            srv = PartitionServer(
                ServeConfig(workers=1, retry_attempts=2,
                            retry_base_delay_s=0.0, cache_capacity=0),
                fault_plan_factory=plan_factory,
                sleep=lambda s: None,
            )
            async with srv:
                return await srv.submit(graph, SBPConfig(seed=5))

        outcome = asyncio.run(run())
        assert outcome.status == "failed"
        assert outcome.error
        assert outcome.result is None

    def test_degraded_run_satisfies_integrity_auditor(self, graph):
        async def run():
            async with PartitionServer(
                ServeConfig(workers=1, cache_capacity=0)
            ) as srv:
                srv.force_degradation(3)  # no_audit + coarse + capped
                return await srv.submit(graph, SBPConfig(seed=5))

        outcome = asyncio.run(run())
        assert outcome.status == "completed"
        assert outcome.degradation_level == 3
        # degraded = less refined, never corrupt: the final partition
        # must still reconcile against a from-scratch blockmodel
        bmap = outcome.result.partition
        reference = reference_blockmodel(
            graph, bmap, outcome.result.num_blocks
        )
        assert audit_blockmodel(graph, bmap, reference) == []

    def test_degraded_results_are_not_cached(self, graph):
        async def run():
            async with PartitionServer(
                ServeConfig(workers=1, cache_capacity=4)
            ) as srv:
                srv.force_degradation(2)
                degraded = await srv.submit(graph, SBPConfig(seed=5))
                srv.force_degradation(None)
                fresh = await srv.submit(graph, SBPConfig(seed=5))
                return degraded, fresh

        degraded, fresh = asyncio.run(run())
        assert degraded.degradation_level == 2
        assert not fresh.cache_hit, (
            "a degraded partition leaked into the cache"
        )
        assert fresh.degradation_level == 0

    def test_checkpoint_shutdown_loses_nothing(self, graph, graph2,
                                               tmp_path):
        async def run():
            srv = PartitionServer(
                ServeConfig(workers=1, checkpoint_root=str(tmp_path),
                            cache_capacity=0)
            )
            await srv.start()
            tasks = [
                srv.submit_task(g, SBPConfig(seed=i))
                for i, g in enumerate([graph, graph2, graph, graph2])
            ]
            await asyncio.sleep(0.05)  # worker picks up the first job
            summary = await srv.shutdown("checkpoint")
            return summary, await asyncio.gather(*tasks)

        summary, outcomes = asyncio.run(run())
        assert summary["unresolved"] == 0
        statuses = sorted(o.status for o in outcomes)
        assert all(
            s in ("checkpointed", "cancelled", "completed", "parked",
                  "timed_out")
            for s in statuses
        )
        assert "parked" in statuses  # backlog was persisted, not dropped
        parked = [o for o in outcomes if o.status == "parked"]
        job_id, parked_graph, cfg = load_parked_job(parked[0].checkpoint_dir)
        assert parked_graph.num_vertices == graph.num_vertices

    def test_parked_payload_is_digest_checked(self, graph, tmp_path):
        job = JobSpec(
            job_id="j1", graph=graph, config=SBPConfig(seed=3),
            cache_key="k", work_bytes=0, submitted_at=0.0,
        )
        park_job(job, tmp_path)
        job_id, parked_graph, _ = load_parked_job(tmp_path)
        assert job_id == "j1"
        assert parked_graph.num_edges == graph.num_edges
        payload = tmp_path / "parked.npz"
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0x01
        payload.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            load_parked_job(tmp_path)

    @pytest.mark.parametrize("strip", ["key", "entry"])
    def test_parked_stripped_digests_rejected(self, graph, tmp_path, strip):
        # format 2 always digests parked.npz, so a manifest without that
        # digest cannot vouch for a (here: reweighted) payload
        job = JobSpec(
            job_id="j1", graph=graph, config=SBPConfig(seed=3),
            cache_key="k", work_bytes=0, submitted_at=0.0,
        )
        park_job(job, tmp_path)
        manifest = json.loads((tmp_path / "parked.json").read_text())
        if strip == "key":
            del manifest["content_digests"]
        else:
            manifest["content_digests"] = {}
        (tmp_path / "parked.json").write_text(json.dumps(manifest))
        with np.load(tmp_path / "parked.npz") as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        arrays["wgt"] = arrays["wgt"] * 7
        np.savez(tmp_path / "parked.npz", **arrays)
        with pytest.raises(CheckpointCorruptError, match="no content digest"):
            load_parked_job(tmp_path)

    def test_parked_pre_digest_format_still_loads(self, graph, tmp_path):
        job = JobSpec(
            job_id="j1", graph=graph, config=SBPConfig(seed=3),
            cache_key="k", work_bytes=0, submitted_at=0.0,
        )
        park_job(job, tmp_path)
        manifest = json.loads((tmp_path / "parked.json").read_text())
        manifest["format_version"] = 1
        del manifest["content_digests"]
        (tmp_path / "parked.json").write_text(json.dumps(manifest))
        job_id, parked_graph, _ = load_parked_job(tmp_path)
        assert job_id == "j1"
        assert parked_graph.num_edges == graph.num_edges

    def test_drain_shutdown_completes_everything(self, graph, graph2):
        async def run():
            srv = PartitionServer(ServeConfig(workers=2, cache_capacity=0))
            await srv.start()
            tasks = [
                srv.submit_task(g, SBPConfig(seed=i))
                for i, g in enumerate([graph, graph2, graph])
            ]
            await asyncio.sleep(0.01)  # let every submission pass admission
            summary = await srv.shutdown("drain")
            return summary, await asyncio.gather(*tasks)

        summary, outcomes = asyncio.run(run())
        assert summary["unresolved"] == 0
        assert [o.status for o in outcomes] == ["completed"] * 3

    def test_submissions_after_shutdown_are_rejected(self, graph):
        async def run():
            srv = PartitionServer(ServeConfig(workers=1))
            await srv.start()
            await srv.shutdown("drain")
            return await srv.submit(graph, SBPConfig(seed=5))

        outcome = asyncio.run(run())
        assert outcome.status == "rejected"
        assert outcome.reject_reason == "shutting_down"


class TestServeFrontend:
    def test_tcp_round_trip_in_one_loop(self, graph):
        """Exercise the JSONL protocol loopback without a subprocess."""
        import json

        from repro.serve import ServeFrontend

        adj = graph.out_adj
        src = []
        for v in range(graph.num_vertices):
            src.extend([v] * int(adj.ptr[v + 1] - adj.ptr[v]))
        dst = [int(x) for x in adj.nbr]
        wgt = [int(x) for x in adj.wgt]

        async def run():
            frontend = ServeFrontend(
                PartitionServer(ServeConfig(workers=1)), port=0
            )
            await frontend.start()
            reader, writer = await asyncio.open_connection(
                frontend.host, frontend.port
            )

            async def ask(payload):
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            part = await ask({
                "op": "partition", "src": src, "dst": dst, "weights": wgt,
                "num_vertices": graph.num_vertices,
                "config": {"seed": 5}, "include_partition": True,
            })
            bad = await ask({"op": "nonsense"})
            # a config or graph the library rejects gets a reply, and
            # the connection stays usable
            bad_config = await ask({
                "op": "partition", "src": [0, 1], "dst": [1, 0],
                "config": {"beta": -1.0},
            })
            bad_graph = await ask({
                "op": "partition", "src": [0, -1], "dst": [1, 0],
            })
            unknown_key = await ask({
                "op": "partition", "src": [0, 1], "dst": [1, 0],
                "config": {"incremental_rebuild_every": 2},
            })
            stats = await ask({"op": "stats"})
            down = await ask({"op": "shutdown", "mode": "drain"})
            writer.close()
            await frontend.close()
            return part, bad, bad_config, bad_graph, unknown_key, stats, down

        part, bad, bad_config, bad_graph, unknown_key, stats, down = (
            asyncio.run(run())
        )
        assert part["ok"] and part["status"] == "completed"
        assert len(part["partition"]) == graph.num_vertices
        assert not bad["ok"]
        assert not bad_config["ok"] and bad_config["op"] == "partition"
        assert bad_config["error"].startswith("ConfigError:")
        assert not bad_graph["ok"]
        assert bad_graph["error"].startswith("GraphFormatError:")
        assert unknown_key["error"].startswith("TypeError:")
        assert stats["stats"]["outcomes"]["completed"] == 1
        assert down["ok"] and down["summary"]["unresolved"] == 0
