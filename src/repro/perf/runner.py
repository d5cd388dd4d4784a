"""The repeat-*k* benchmark runner feeding bench records.

Wraps the existing :class:`~repro.bench.harness.BenchHarness` workload
definitions (:class:`~repro.bench.workloads.WorkloadSpec`) with the
measurement discipline the one-shot harness lacks:

* **warmup discard** — the first ``warmup`` executions of every
  workload never enter the record (they pay import, allocator and
  cache-warming costs);
* **repeat-k sampling** — every retained execution contributes one raw
  sample per metric; nothing is averaged at collection time;
* **interleaved ordering** — executions are scheduled round-robin
  across workloads (repeat 0 of every workload, then repeat 1, ...),
  so slow environmental drift (thermal throttling, a background
  process) biases all workloads — and in particular both sides of an
  A/B variant pair — equally instead of landing on whichever workload
  ran last;
* **full attribution** — per-phase timings from the run result and the
  ``obs`` tracer, per-kernel time/work-items/bytes from the simulated
  device's profiler (keyed ``phase/kernel``), and quality metrics
  (MDL/NMI/ARI) against the dataset's planted truth.

Each execution gets a *fresh* partitioner and device so profiler state
never leaks across repeats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bench.harness import make_partitioner
from ..bench.workloads import WorkloadSpec, bench_config, bench_scale
from ..config import SBPConfig
from ..graph.datasets import load_dataset
from ..metrics import ari, nmi
from .record import new_record, new_workload

#: the CI perf-gate workload set: GSAP on a spread of categories at
#: quick-scale sizes, small enough for repeat-k sampling in CI minutes
GATE_SPECS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec("low_low", 200, "GSAP"),
    WorkloadSpec("low_low", 500, "GSAP"),
    WorkloadSpec("high_high", 200, "GSAP"),
)


@dataclass(frozen=True)
class PerfWorkload:
    """One observatory workload: a bench spec plus an optional variant.

    ``variant`` distinguishes A/B arms of the same spec (for example
    ``batches4`` vs ``batches16`` for two ``num_batches_for_MCMC``
    settings); ``configure`` transforms the base config for this arm.
    """

    spec: WorkloadSpec
    variant: str = ""
    configure: Optional[Callable[[SBPConfig], SBPConfig]] = field(
        default=None, compare=False
    )

    @property
    def key(self) -> str:
        return f"{self.spec.key}#{self.variant}" if self.variant else self.spec.key


def gate_workloads() -> List[PerfWorkload]:
    """The default perf-gate suite."""
    return [PerfWorkload(spec) for spec in GATE_SPECS]


def _kernel_table(profiler) -> Dict[str, dict]:
    """Per-(phase, kernel) totals of one run, from the device profiler."""
    table: Dict[str, dict] = {}
    if profiler is None:
        return table
    for rec in profiler.kernel_records:
        key = f"{rec.phase}/{rec.name}"
        entry = table.setdefault(
            key,
            {"wall_s": 0.0, "sim_s": 0.0, "launches": 0,
             "work_items": 0, "bytes_moved": 0},
        )
        entry["wall_s"] += rec.wall_time_s
        entry["sim_s"] += rec.sim_time_s
        entry["launches"] += 1
        entry["work_items"] += rec.work_items
        entry["bytes_moved"] += rec.bytes_moved
    return table


def _tracer_phases(obs) -> Optional[dict]:
    """Aggregate phase-category span durations from the obs tracer."""
    if obs is None or not getattr(obs, "enabled", False):
        return None
    totals: Dict[str, float] = {}
    count = 0
    for span in obs.tracer.spans():
        count += 1
        if span.category != "phase":
            continue
        duration = span.duration_s
        if duration is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + duration
    return {"spans": count, "phase_s": totals}


def run_workloads(
    workloads: Sequence[PerfWorkload],
    *,
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
    label: str = "",
    config: Optional[SBPConfig] = None,
    collect_obs: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    trace_out: Optional[str] = None,
) -> dict:
    """Run every workload ``warmup + repeats`` times; return a record.

    ``config`` overrides the base bench configuration (defaults to
    :func:`~repro.bench.workloads.bench_config` at the active scale).
    With ``collect_obs=False`` runs execute with observability disabled
    (the ``NULL_OBS`` path): records then carry ``tracer: null`` but
    remain schema-valid.  ``trace_out`` writes a Chrome trace of the
    last traced run (the CI perf-gate uploads it as an artifact).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    base_config = config if config is not None else bench_config(seed)
    if collect_obs:
        base_config = base_config.replace(
            observability=base_config.observability.replace(enabled=True)
        )

    record = new_record(
        label=label, seed=seed, repeats=repeats, warmup=warmup,
        scale=bench_scale(),
    )
    entries: Dict[str, dict] = {}
    datasets: Dict[Tuple[str, int], tuple] = {}
    last_obs = None

    # interleaved schedule: iteration r of every workload before r+1
    for repeat_idx in range(warmup + repeats):
        retained = repeat_idx >= warmup
        for wl in workloads:
            spec = wl.spec
            ds_key = (spec.category, spec.num_vertices)
            if ds_key not in datasets:
                datasets[ds_key] = load_dataset(spec.category, spec.num_vertices)
            graph, truth = datasets[ds_key]
            run_config = base_config
            if wl.configure is not None:
                run_config = wl.configure(run_config)
            partitioner = make_partitioner(spec.algorithm, run_config)
            if progress is not None:
                kind = "warmup" if not retained else f"repeat {repeat_idx - warmup + 1}/{repeats}"
                progress(f"{wl.key}: {kind}")
            t0 = time.perf_counter()
            result = partitioner.partition(graph)
            runtime_s = time.perf_counter() - t0
            if not retained:
                continue

            entry = entries.get(wl.key)
            if entry is None:
                entry = new_workload(
                    key=wl.key,
                    algorithm=spec.algorithm,
                    category=spec.category,
                    num_vertices=spec.num_vertices,
                    num_edges=graph.num_edges,
                    variant=wl.variant,
                )
                entries[wl.key] = entry
                record["workloads"].append(entry)

            entry["samples"]["runtime_s"].append(runtime_s)
            entry["samples"]["sim_time_s"].append(result.sim_time_s)
            for name, value in result.timings.breakdown().items():
                entry["phases"].setdefault(name, []).append(value)
            quality = entry["quality"]
            quality.setdefault("mdl", []).append(result.mdl)
            quality.setdefault("num_blocks", []).append(result.num_blocks)
            quality.setdefault("nmi", []).append(nmi(result.partition, truth))
            quality.setdefault("ari", []).append(ari(result.partition, truth))

            profiler = getattr(
                getattr(partitioner, "device", None), "profiler", None
            )
            # samples recorded for this workload *before* this repeat;
            # a kernel first seen now (e.g. after a degradation rung)
            # back-fills zeros so every list stays one-sample-per-repeat
            prior = len(entry["samples"]["runtime_s"]) - 1
            for key, stats in _kernel_table(profiler).items():
                bucket = entry["kernels"].get(key)
                if bucket is None:
                    bucket = {
                        "wall_s": [0.0] * prior, "sim_s": [0.0] * prior,
                        "launches": [0] * prior, "work_items": [0] * prior,
                        "bytes_moved": [0] * prior,
                    }
                    entry["kernels"][key] = bucket
                bucket["wall_s"].append(stats["wall_s"])
                bucket["sim_s"].append(stats["sim_s"])
                bucket["launches"].append(stats["launches"])
                bucket["work_items"].append(stats["work_items"])
                bucket["bytes_moved"].append(stats["bytes_moved"])

            obs = getattr(partitioner, "obs", None)
            tracer_summary = _tracer_phases(obs)
            if tracer_summary is not None:
                entry["tracer"] = tracer_summary
                last_obs = obs

    # kernels that vanished in later repeats: pad the tail with zeros
    for entry in record["workloads"]:
        n = len(entry["samples"]["runtime_s"])
        for stats in entry["kernels"].values():
            for sub, values in stats.items():
                fill = 0.0 if sub in ("wall_s", "sim_s") else 0
                while len(values) < n:
                    values.append(fill)
    if trace_out is not None and last_obs is not None:
        from ..obs import write_chrome_trace

        write_chrome_trace(
            last_obs.tracer, trace_out,
            metadata={"label": label, "seed": seed, "source": "gsap perf run"},
        )
    return record
