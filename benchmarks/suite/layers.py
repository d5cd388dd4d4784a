"""Outside-in layer tracing for the benchmark's ``--trace 1`` pass.

Nothing under ``src/`` is instrumented for this.  :class:`LayerTrace`
rebinds the module (or class) attributes that callers look up — e.g.
``repro.core.partitioner.run_vertex_move_phase`` or
``repro.core.vertex_move.move_delta_batch`` — to wrappers that time the
call and hand arguments, return values and exceptions through
untouched, so a traced run draws the same random numbers and produces
the same partition as an untraced one.

Two kinds of wrapper:

* **span** — a :class:`repro.obs.trace.Tracer` span (name, start, end,
  parent) on the calling thread's tracer.  Used where calls are few
  (phases, per-batch kernels-of-work, rebuilds, exchanges).  When the
  wrapped call has a simulated device, the span also records the wall
  time of the kernels launched inside it, read off the public
  ``Device.profiler.kernel_records``.
* **tally** — calls and seconds only, charged to the enclosing span.
  Used for the per-vertex functions of the EDiSt baseline, which run
  hundreds of thousands of times per partition.

Spans stay in memory; :meth:`LayerTrace.write_chrome_trace` and
:func:`layer_metrics` turn them into a trace file and per-layer metrics
at the end.  Each thread (the serve workload runs partitions on two
worker threads) records into its own tracer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.obs.export import chrome_trace_events
from repro.obs.trace import Tracer

SPAN = "span"
TALLY = "tally"

#: Kernels whose wall share, launches and work items are per-layer
#: metrics; ``gather`` sums every ``gather_*`` kernel.
KERNELS = (
    "segmented_sort",
    "delta_terms_sum",
    "hastings_correction",
    "build_move_context",
    "segmented_reduce_by_key",
    "apply_delta_cells",
    "curand_multinomial",
    "gather",
)


def _kernel_group(name: str) -> str:
    return "gather" if name.startswith("gather_") else name


def _profiler_of_device(args) -> object:
    return args[0].profiler


def _profiler_of_self(args) -> object:
    return args[0].device.profiler


def layer_patches() -> list:
    """``(owner, attribute, span name, kind, profiler_of)`` per entry point.

    The span name is the layer role; GSAP's batched functions and the
    EDiSt baseline's per-vertex ones share a role where they do the same
    job (e.g. ``vertex_move.delta``: ``move_delta_batch`` for GSAP,
    ``move_delta_dense`` for EDiSt).
    """
    from repro.baselines import common, edist
    from repro.blockmodel import dense, incremental
    from repro.core import block_merge, golden_section, partitioner, vertex_move
    from repro.dist import comm
    from repro.graph import datasets

    gsap = partitioner.GSAPPartitioner
    search = golden_section.GoldenSectionSearch
    inc = incremental.IncrementalBlockmodel
    dbm = dense.DenseBlockmodel
    return [
        (gsap, "partition", "run", SPAN, _profiler_of_self),
        (edist.EDiStPartitioner, "partition", "run", SPAN, None),
        (partitioner, "run_block_merge_phase", "block_merge", SPAN,
         _profiler_of_device),
        (common.CPUSBPEngine, "_merge_phase", "block_merge", SPAN, None),
        (partitioner, "run_vertex_move_phase", "vertex_move", SPAN,
         _profiler_of_device),
        (edist.EDiStPartitioner, "_move_phase", "vertex_move", SPAN, None),
        (search, "next_target", "golden_section", SPAN, None),
        (search, "update", "golden_section", SPAN, None),
        (block_merge, "propose_block_merges", "block_merge.propose", SPAN, None),
        (block_merge, "precompute_block_term_sums", "block_merge.term_sums",
         SPAN, None),
        (block_merge, "merge_delta_batch", "block_merge.delta", SPAN, None),
        (common, "propose_from_blockmodel", "block_merge.propose", TALLY, None),
        (common, "merge_delta_dense", "block_merge.delta", TALLY, None),
        (vertex_move, "propose_vertex_moves", "vertex_move.propose", SPAN, None),
        (vertex_move, "build_move_context", "vertex_move.context", SPAN, None),
        (vertex_move, "precompute_block_term_sums", "vertex_move.term_sums",
         SPAN, None),
        (vertex_move, "move_delta_batch", "vertex_move.delta", SPAN, None),
        (vertex_move, "hastings_correction_batch", "vertex_move.hastings",
         SPAN, None),
        (vertex_move, "accept_moves", "vertex_move.accept", SPAN, None),
        (edist, "vertex_neighborhood", "vertex_move.context", TALLY, None),
        (edist, "propose_from_blockmodel", "vertex_move.propose", TALLY, None),
        (edist, "move_delta_dense", "vertex_move.delta", TALLY, None),
        (edist, "hastings_correction_dense", "vertex_move.hastings", TALLY,
         None),
        (partitioner, "rebuild_blockmodel", "blockmodel.rebuild", SPAN, None),
        (dbm, "from_graph", "blockmodel.rebuild", SPAN, None),
        (inc, "apply_batch", "blockmodel.incremental_apply", SPAN, None),
        (inc, "apply_merge_relabel", "blockmodel.merge_relabel", SPAN, None),
        (dbm, "apply_move", "blockmodel.incremental_apply", TALLY, None),
        (partitioner, "description_length", "blockmodel.entropy", SPAN, None),
        (vertex_move, "description_length", "blockmodel.entropy", SPAN, None),
        (common, "description_length", "blockmodel.entropy", SPAN, None),
        (edist, "description_length", "blockmodel.entropy", SPAN, None),
        (comm.Communicator, "exchange", "dist.exchange", SPAN, None),
        (datasets, "generate_category_graph", "graph.generate", SPAN, None),
    ]


@dataclass
class _Frame:
    index: int
    tally_s: float = 0.0


@dataclass
class _ThreadLog:
    """Everything one thread recorded."""

    name: str
    tracer: Tracer
    #: seconds to add to this tracer's span starts to share one timeline
    offset_s: float
    stack: List[_Frame] = field(default_factory=list)
    in_tally: bool = False
    tallies: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0])
    )
    #: kernel name -> [wall_s, sim_s, launches, work_items, bytes_moved]
    kernels: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
    )


class LayerTrace:
    """Install/remove the layer wrappers and hold what they recorded.

    Wrappers record only while :attr:`armed` is set, so warm-up calls
    made with the wrappers installed stay out of the numbers.
    """

    def __init__(self) -> None:
        self.armed = False
        self._epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: List[_ThreadLog] = []
        self._saved: list = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, kind, profiler_of in layer_patches():
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == SPAN:
                wrapped = self._span_wrapper(name, fn, profiler_of)
            else:
                wrapped = self._tally_wrapper(name, fn)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def uninstall(self) -> None:
        self.armed = False
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording -----------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            tracer = Tracer(enabled=True)
            offset = (time.perf_counter() - self._epoch) - tracer.now()
            log = _ThreadLog(threading.current_thread().name, tracer, offset)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _span_wrapper(self, name: str, fn: Callable, profiler_of) -> Callable:
        def wrapper(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            log = self._log()
            records = profiler_of(args).kernel_records if profiler_of else None
            first = len(records) if records is not None else 0
            frame = _Frame(log.tracer.begin(name, "layer"))
            log.stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                log.stack.pop()
                log.tracer.end(frame.index)
                span_args = log.tracer.spans()[frame.index].args
                span_args["tally_s"] = frame.tally_s
                if records is not None:
                    launched = records[first:]
                    span_args["kernel_s"] = sum(r.wall_time_s for r in launched)
                    if name == "run":
                        for rec in launched:
                            row = log.kernels[_kernel_group(rec.name)]
                            row[0] += rec.wall_time_s
                            row[1] += rec.sim_time_s
                            row[2] += 1
                            row[3] += rec.work_items
                            row[4] += rec.bytes_moved
                if result is not None:
                    span_args.update(_result_args(name, result))
        return wrapper

    def _tally_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            log = self._log()
            if log.in_tally:  # nested tallies are charged once, outermost
                return fn(*args, **kwargs)
            log.in_tally = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                log.in_tally = False
                entry = log.tallies[name]
                entry[0] += 1
                entry[1] += elapsed
                if log.stack:
                    log.stack[-1].tally_s += elapsed
        return wrapper

    # -- export --------------------------------------------------------
    def logs(self) -> List[_ThreadLog]:
        with self._lock:
            return list(self._logs)

    def write_chrome_trace(self, path: Path, metadata: dict) -> Path:
        """One Perfetto-loadable file; one track per recording thread."""
        events: List[dict] = []
        for tid, log in enumerate(self.logs()):
            for event in chrome_trace_events(
                log.tracer, pid=1, process_name="benchmark",
                thread_name=log.name,
            ):
                event["tid"] = tid
                if "ts" in event:
                    event["ts"] += log.offset_s * 1e6
                events.append(event)
        tallies: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for log in self.logs():
            for name, (calls, seconds) in log.tallies.items():
                tallies[name][0] += calls
                tallies[name][1] += seconds
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {**metadata, "tallies": dict(tallies)},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path


def _result_args(name: str, result) -> dict:
    """Counts read off a wrapped call's return value (never modified)."""
    if name == "run":
        out = {
            "plateaus": len(result.history),
            "sweeps": result.num_sweeps,
            "merge_proposals": result.proposal_stats.merge_proposals,
            "move_proposals": result.proposal_stats.move_proposals,
            "sim_s": result.sim_time_s,
        }
        if result.dist:
            out["dist"] = {
                k: result.dist[k]
                for k in ("rounds", "messages", "bytes_sent", "retransmits")
            }
        return out
    if name == "vertex_move" and hasattr(result, "num_moves_accepted"):
        return {"accepted": result.num_moves_accepted}
    return {}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    kernel_s: float = 0.0


def span_table(trace: LayerTrace) -> Dict[str, SpanTotals]:
    """Per span name: calls, total, self time and kernel wall time.

    Self time is the span's duration minus its child spans and the
    tallied calls made directly inside it.
    """
    table: Dict[str, SpanTotals] = defaultdict(SpanTotals)
    for log in trace.logs():
        spans = [s for s in log.tracer.spans() if s.category == "layer"]
        child_s: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_s[span.parent] += span.duration_s
        for span in spans:
            row = table[span.name]
            row.calls += 1
            row.total_s += span.duration_s
            row.self_s += (
                span.duration_s - child_s[span.index] - span.args["tally_s"]
            )
            row.kernel_s += span.args.get("kernel_s", 0.0)
    return table


def _run_spans(trace: LayerTrace):
    for log in trace.logs():
        for span in log.tracer.spans():
            if span.category == "layer" and span.name == "run":
                yield span


def _fallback_share(trace: LayerTrace) -> float:
    """Rebuilds nested in ``apply_batch`` over ``apply_batch`` calls."""
    applies = fallbacks = 0
    for log in trace.logs():
        spans = log.tracer.spans()
        for span in spans:
            if span.category != "layer":
                continue
            if span.name == "blockmodel.incremental_apply":
                applies += 1
            elif (
                span.name == "blockmodel.rebuild"
                and span.parent is not None
                and spans[span.parent].name == "blockmodel.incremental_apply"
            ):
                fallbacks += 1
    return fallbacks / applies if applies else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: LayerTrace, serve_ops=None) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, ``<layer>.<metric>``.

    *serve_ops* are the traced pass's serve jobs (``Op`` records), when
    the workload is the serve one.
    """
    spans = span_table(trace)
    tallies: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    kernels: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0, 0, 0, 0])
    for log in trace.logs():
        for name, (calls, seconds) in log.tallies.items():
            tallies[name][0] += calls
            tallies[name][1] += seconds
        for name, row in log.kernels.items():
            for i, value in enumerate(row):
                kernels[name][i] += value

    def busy(name: str) -> float:
        return spans[name].total_s + tallies[name][1]

    def calls(name: str) -> int:
        return spans[name].calls + tallies[name][0]

    runs = list(_run_spans(trace))
    run_s = sum(s.duration_s for s in runs)
    counts: Dict[str, float] = defaultdict(float)
    for span in runs:
        for key in ("plateaus", "sweeps", "merge_proposals", "move_proposals",
                    "sim_s"):
            counts[key] += span.args.get(key, 0)
        for key, value in span.args.get("dist", {}).items():
            counts["dist." + key] += value
    accepted = sum(
        s.args.get("accepted", 0)
        for log in trace.logs() for s in log.tracer.spans()
        if s.name == "vertex_move"
    ) + tallies["blockmodel.incremental_apply"][0]

    m: Dict[str, float] = {
        "partitioner.plateaus": counts["plateaus"],
        "partitioner.sweeps": counts["sweeps"],
        "golden_section.busy_s": busy("golden_section"),
    }
    for phase, parts in (
        ("block_merge", ("propose", "term_sums", "delta")),
        ("vertex_move", ("propose", "context", "term_sums", "delta",
                         "hastings", "accept")),
    ):
        total = spans[phase].total_s
        kernel = spans[phase].kernel_s
        m[f"{phase}.busy_s"] = total
        m[f"{phase}.calls"] = spans[phase].calls
        for part in parts:
            m[f"{phase}.{part}_s"] = busy(f"{phase}.{part}")
        m[f"{phase}.kernel_s"] = kernel
        m[f"{phase}.glue_s"] = total - kernel
        m[f"{phase}.kernel_share"] = _ratio(kernel, total)
    m["block_merge.proposals"] = counts["merge_proposals"]
    m["vertex_move.proposals"] = counts["move_proposals"]
    m["vertex_move.accept_ratio"] = _ratio(accepted, counts["move_proposals"])

    for role in ("rebuild", "incremental_apply", "merge_relabel", "entropy"):
        m[f"blockmodel.{role}_s"] = busy(f"blockmodel.{role}")
        m[f"blockmodel.{role}_calls"] = calls(f"blockmodel.{role}")
    m["blockmodel.fallback_share"] = _fallback_share(trace)

    kernel_wall = sum(row[0] for row in kernels.values())
    kernel_sim = sum(row[1] for row in kernels.values())
    m["gpusim.launches"] = sum(row[2] for row in kernels.values())
    m["gpusim.kernel_wall_s"] = kernel_wall
    m["gpusim.kernel_share"] = _ratio(kernel_wall, run_s)
    m["gpusim.sim_s"] = counts["sim_s"]
    m["gpusim.wall_per_sim"] = _ratio(kernel_wall, kernel_sim)
    m["gpusim.bytes_moved"] = sum(row[4] for row in kernels.values())
    for name in KERNELS:
        wall, _sim, launches, work, _bytes = kernels[name]
        m[f"gpusim.{name}.wall_s"] = wall
        m[f"gpusim.{name}.wall_share"] = _ratio(wall, run_s)
        m[f"gpusim.{name}.launches"] = launches
        m[f"gpusim.{name}.work_items"] = work

    m["graph.generate_s"] = busy("graph.generate")

    serve_ops = serve_ops or []
    latency = sum(op.latency_s for op in serve_ops)
    queue = sum(op.queue_wait_s for op in serve_ops)
    m["serve.queue_wait_s"] = queue
    m["serve.service_s"] = sum(op.service_s for op in serve_ops)
    m["serve.partition_s"] = run_s if serve_ops else 0.0
    m["serve.overhead_s"] = latency - run_s if serve_ops else 0.0
    m["serve.queue_wait_share"] = _ratio(queue, latency)
    m["serve.overhead_share"] = _ratio(m["serve.overhead_s"], latency)
    m["serve.cache_hit_ratio"] = _ratio(
        sum(op.cache_hit for op in serve_ops), len(serve_ops)
    )
    m["serve.coalesced"] = sum(op.coalesced for op in serve_ops)
    m["serve.rejected"] = sum(op.status == "rejected" for op in serve_ops)
    m["serve.max_degradation_level"] = max(
        (op.degradation_level for op in serve_ops), default=0
    )

    for key in ("rounds", "messages", "bytes_sent", "retransmits"):
        m[f"dist.{key}"] = counts["dist." + key]
    m["dist.exchange_s"] = busy("dist.exchange")
    m["dist.exchange_share"] = _ratio(m["dist.exchange_s"], run_s)

    m["run.partition_s"] = run_s
    m["trace.unattributed_s"] = spans["run"].self_s
    return m


def reconciliation_errors(metrics: Dict[str, float], tol_s: float = 1e-9) -> List[str]:
    """Phases whose kernel and glue time do not add up to busy time.

    Glue must also be non-negative: kernels attributed to a phase ran
    inside its span, so they can never add up to more than the span.
    """
    errors = []
    for phase in ("block_merge", "vertex_move"):
        busy = metrics[f"{phase}.busy_s"]
        glue = metrics[f"{phase}.glue_s"]
        total = metrics[f"{phase}.kernel_s"] + glue
        if abs(total - busy) > tol_s or glue < 0:
            errors.append(
                f"{phase}: kernel + glue = {total!r}, glue {glue!r}, "
                f"busy {busy!r}"
            )
    return errors
