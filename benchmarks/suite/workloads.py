"""The four workloads of the repo benchmark, their closed loops and checks.

Every workload is a :class:`Workload`: ``prepare(seed)`` builds the
inputs (graphs come from :func:`repro.load_dataset` and nothing else),
``loop(inputs, seconds, max_ops, on_ready)`` warms up, calls
``on_ready()`` right before the first measured operation and then runs a
closed loop — the next operation starts only after the previous one
returned — and :func:`evaluate` checks every output and derives the
end-to-end metrics.  The partitioner receives only the generated graph
and :func:`sbp_config`; the seed is the only input.

Sizes are dataclass fields, so the tests run the same code on tiny
graphs through :func:`dataclasses.replace`.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import GSAPPartitioner, SBPConfig, load_dataset
from repro.baselines.edist import EDiStPartitioner
from repro.blockmodel.entropy import description_length
from repro.blockmodel.update import rebuild_blockmodel_cpu
from repro.gpusim import A4000, Device
from repro.graph.datasets import CATEGORIES
from repro.metrics import nmi
from repro.serve import PartitionServer, ServeConfig


def sbp_config(seed: int) -> SBPConfig:
    """The pinned partitioner configuration of every workload.

    Thresholds ten times looser than paper Table 2 and at most 30 sweeps
    per plateau keep a 5K-vertex run near 15 s of wall time on a
    2-core host, so one partition fits in one measured run.
    """
    return SBPConfig(
        seed=seed,
        max_num_nodal_itr=30,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
    )


def partition_sha256(partition: np.ndarray, mdl: float) -> str:
    """Digest of one output: the block labels plus the reported MDL."""
    digest = hashlib.sha256(np.asarray(partition, dtype="<i8").tobytes())
    digest.update(repr(float(mdl)).encode())
    return digest.hexdigest()


@dataclass
class Op:
    """One measured operation: a partition call or one serve job."""

    latency_s: float
    graph: object
    truth: np.ndarray
    result: object = None
    partition_s: Optional[float] = None  # None: no fresh partition ran
    status: str = "completed"
    error: Optional[str] = None
    key: int = 0  # which input graph; equal keys must give equal outputs
    cache_hit: bool = False
    coalesced: bool = False
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    degradation_level: int = 0

    @property
    def sha256(self) -> Optional[str]:
        if self.result is None:
            return None
        return partition_sha256(self.result.partition, self.result.mdl)


def _next_fits(ops, start: float, seconds: float) -> bool:
    """Whether another operation should start within the *seconds* budget.

    The first one always does; later ones only while the time spent so
    far plus the median operation so far stays within budget.
    """
    if not ops:
        return True
    typical = statistics.median(op.latency_s for op in ops)
    return time.perf_counter() - start + typical <= seconds


def _closed_loop(
    run_one: Callable[[], Op], seconds: float, max_ops: Optional[int]
) -> Tuple[List[Op], float]:
    """Run operations back to back while the next one should still fit."""
    ops: List[Op] = []
    start = time.perf_counter()
    while (max_ops is None or len(ops) < max_ops) and _next_fits(
        ops, start, seconds
    ):
        ops.append(run_one())
    return ops, time.perf_counter() - start


def _timed_partition(make_partitioner: Callable[[], object], graph, truth) -> Op:
    """One direct request: build the partitioner, then ``partition()``.

    The latency covers both; ``partition_s`` only the call itself.
    """
    t0 = time.perf_counter()
    try:
        partitioner = make_partitioner()
        t1 = time.perf_counter()
        result = partitioner.partition(graph)
    except Exception as exc:  # counted as a failed operation, not fatal
        return Op(
            latency_s=time.perf_counter() - t0, graph=graph, truth=truth,
            status="raised", error=f"{type(exc).__name__}: {exc}",
        )
    t2 = time.perf_counter()
    return Op(
        latency_s=t2 - t0, graph=graph, truth=truth, result=result,
        partition_s=t2 - t1,
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``kind`` selects gsap / serve / edist."""

    name: str
    kind: str
    nmi_floor: float
    category: str = "low_low"
    num_vertices: int = 5_000
    warmup_vertices: int = 200
    num_jobs: int = 60

    # -- inputs --------------------------------------------------------
    def prepare(self, seed: int) -> dict:
        """Generate the workload's graphs; the only input is *seed*."""
        if self.kind != "serve":
            graph, truth = load_dataset(self.category, self.num_vertices, seed)
            warm, _ = load_dataset(self.category, self.warmup_vertices, seed)
            return {"seed": seed, "graph": graph, "truth": truth, "warm": warm}
        distinct = []
        keys = []
        for pos in range(self.num_jobs):
            # every fifth submission repeats the graph submitted four
            # positions earlier, so it can hit the cache
            if pos % 5 == 4:
                keys.append(keys[pos - 4])
                continue
            d = len(distinct)
            distinct.append(load_dataset(
                CATEGORIES[d % len(CATEGORIES)], self.num_vertices,
                seed * 100 + d,
            ))
            keys.append(d)
        warm, _ = load_dataset("low_low", self.num_vertices, seed * 100 + 99)
        return {"seed": seed, "graphs": distinct, "keys": keys, "warm": warm}

    # -- measured loop -------------------------------------------------
    def loop(
        self,
        inputs: dict,
        seconds: float,
        max_ops: Optional[int] = None,
        on_ready: Callable[[], None] = lambda: None,
    ) -> Tuple[List[Op], float]:
        """Warm up, call *on_ready*, then run the closed loop.

        Returns ``(ops, loop_wall_s)``.  ``max_ops=0`` stops right after
        set-up (used to time set-up alone).
        """
        config = sbp_config(inputs["seed"])
        if self.kind in ("gsap", "edist"):
            if self.kind == "gsap":
                def make():
                    return GSAPPartitioner(config, device=Device(A4000))
            else:
                def make():
                    return EDiStPartitioner(config, num_ranks=2)
            make().partition(inputs["warm"])
            on_ready()
            return _closed_loop(
                lambda: _timed_partition(make, inputs["graph"], inputs["truth"]),
                seconds, max_ops,
            )
        return asyncio.run(
            self._serve_loop(inputs, config, seconds, max_ops, on_ready)
        )

    async def _serve_loop(self, inputs, config, seconds, max_ops, on_ready):
        keys: List[int] = inputs["keys"]
        limit = len(keys) if max_ops is None else min(max_ops, len(keys))
        server = PartitionServer(ServeConfig(
            workers=2, cache_capacity=max(64, len(keys)),
        ))
        await server.start()
        try:
            await server.submit(inputs["warm"], config, use_cache=False)
            on_ready()
            ops: Dict[int, Op] = {}
            taken = 0
            start = time.perf_counter()

            async def client() -> None:
                nonlocal taken
                # check and take without an await in between, so the
                # positions submitted are always 0..n-1 with no gap
                while taken < limit and _next_fits(
                    list(ops.values()), start, seconds
                ):
                    pos = taken
                    taken += 1
                    graph, truth = inputs["graphs"][keys[pos]]
                    t0 = time.perf_counter()
                    outcome = await server.submit(graph, config)
                    latency = time.perf_counter() - t0
                    fresh = (
                        outcome.result is not None
                        and not outcome.cache_hit and not outcome.coalesced
                    )
                    ops[pos] = Op(
                        latency_s=latency, graph=graph, truth=truth,
                        result=outcome.result,
                        partition_s=(
                            outcome.result.total_time_s if fresh else None
                        ),
                        status=outcome.status, error=outcome.error,
                        key=keys[pos], cache_hit=outcome.cache_hit,
                        coalesced=outcome.coalesced,
                        queue_wait_s=outcome.queue_wait_s,
                        service_s=outcome.service_s,
                        degradation_level=outcome.degradation_level,
                    )

            # two clients, so at most two submissions are ever in flight:
            # each awaits its reply before taking the next position
            await asyncio.gather(client(), client())
            wall = time.perf_counter() - start
        finally:
            await server.shutdown()
        return [ops[pos] for pos in sorted(ops)], wall


#: The benchmark's workloads, keyed by the names BENCHMARK.json uses.
#: ``nmi_floor`` is the per-workload quality check; a run whose NMI
#: falls below it counts as a failed operation.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gsap-lowlow-5k", "gsap", nmi_floor=0.90,
                 category="low_low", num_vertices=5_000),
        Workload("gsap-highhigh-5k", "gsap", nmi_floor=0.40,
                 category="high_high", num_vertices=5_000),
        Workload("serve-small", "serve", nmi_floor=0.50, num_vertices=300),
        Workload("edist-2rank", "edist", nmi_floor=0.85,
                 category="low_low", num_vertices=1_000,
                 warmup_vertices=60),
    )
}


# ----------------------------------------------------------------------
# output checks and end-to-end metrics
# ----------------------------------------------------------------------
def recomputed_mdl(graph, partition: np.ndarray, num_blocks: int) -> float:
    """MDL of *partition* from scratch, on the per-edge CPU rebuild."""
    model = rebuild_blockmodel_cpu(graph, partition, num_blocks)
    return description_length(
        model, graph.num_vertices, graph.total_edge_weight
    )


def check_op(op: Op, mdl_rtol: float = 1e-9) -> List[str]:
    """Structural and MDL checks of one operation's output."""
    if op.status != "completed" or op.result is None:
        return [f"status {op.status}: {op.error}"]
    part = np.asarray(op.result.partition)
    num_blocks = int(op.result.num_blocks)
    problems = []
    if len(part) != op.graph.num_vertices:
        problems.append(
            f"partition length {len(part)} != V={op.graph.num_vertices}"
        )
    if not np.array_equal(np.unique(part), np.arange(num_blocks)):
        problems.append(f"labels are not dense in [0, {num_blocks})")
    if not problems:
        mdl = recomputed_mdl(op.graph, part, num_blocks)
        if abs(mdl - op.result.mdl) > mdl_rtol * abs(mdl):
            problems.append(
                f"reported MDL {op.result.mdl!r} != recomputed {mdl!r}"
            )
    return problems


@dataclass
class Evaluation:
    """Checked outcome of one measured loop."""

    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)


def evaluate(workload: Workload, ops: List[Op], wall_s: float) -> Evaluation:
    """Check every output and derive the end-to-end metrics.

    Runs after the timed loop, so checking never shows up in a timing.
    An operation fails when it raised, ended in a non-``completed``
    state, or failed a check; a repeat whose output differs from the
    first computation of the same graph fails too.
    """
    problems: List[str] = []
    failed = 0
    first_sha: Dict[int, str] = {}
    nmis: List[float] = []
    for pos, op in enumerate(ops):
        op_problems = check_op(op)
        if not op_problems:
            sha = op.sha256
            if first_sha.setdefault(op.key, sha) != sha:
                op_problems.append(
                    f"output for graph {op.key} differs from its first "
                    f"computation (cache_hit={op.cache_hit})"
                )
            nmis.append(nmi(op.result.partition, op.truth))
            if workload.kind != "serve" and nmis[-1] < workload.nmi_floor:
                op_problems.append(
                    f"NMI {nmis[-1]:.4f} below floor {workload.nmi_floor}"
                )
        if op_problems:
            failed += 1
            problems.extend(f"op {pos}: {p}" for p in op_problems)
    # tiny serve graphs of the hard categories score low one by one, so
    # the serve floor applies to the median over its jobs
    if workload.kind == "serve" and nmis:
        if statistics.median(nmis) < workload.nmi_floor:
            failed += 1
            problems.append(
                f"median NMI {statistics.median(nmis):.4f} below floor "
                f"{workload.nmi_floor}"
            )
    done = [op for op in ops if op.status == "completed" and op.result]
    fresh = [op.partition_s for op in done if op.partition_s is not None]
    latencies = [op.latency_s for op in done]
    ev = Evaluation(attempted=len(ops), failed=failed, problems=problems)
    ev.samples = {
        "latency_s": latencies,
        "partition_s": fresh,
        "mdl": [float(op.result.mdl) for op in done],
        # the planted partition's MDL varies with the sampled graph far
        # more than the partitioner's result does relative to it
        "mdl_ratio": [
            float(op.result.mdl) / recomputed_mdl(
                op.graph, op.truth, int(np.max(op.truth)) + 1
            )
            for op in done
        ],
        "nmi": nmis,
    }
    if fresh and latencies:
        ev.metrics = {
            "partition_s": statistics.median(fresh),
            "job_p50_s": statistics.median(latencies),
            "jobs_per_s": len(done) / wall_s,
            "mdl_ratio": statistics.median(ev.samples["mdl_ratio"]),
        }
    return ev
