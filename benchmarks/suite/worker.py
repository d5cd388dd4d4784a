"""Run one workload in this (fresh) process; print one JSON line.

Started by ``run.py``, never by hand.  Three modes:

* ``--setup-only``: set up (imports, graphs, warm-up, server start) and
  report ``setup_s``, the time from process spawn to the point the
  first measured operation would start.
* default: set up, run the closed loop for ``--seconds``, check every
  output, report the end-to-end metrics.
* ``--trace``: one untraced repetition, then the same repetition with
  the layer wrappers of :mod:`layers` installed; report the per-layer
  metrics, the tracing overhead, and whether both passes produced
  identical partitions.  Writes ``trace.json`` (Chrome trace) and
  ``layers.json`` into ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

from layers import LayerTrace, layer_metrics, reconciliation_errors, span_table
from workloads import WORKLOADS, evaluate

from repro.graph.datasets import clear_dataset_cache
from repro.integrity import graph_sha256


def _graph_digests(inputs: dict) -> list:
    graphs = [inputs["graph"]] if "graph" in inputs else [
        g for g, _truth in inputs["graphs"]
    ]
    return [graph_sha256(g) for g in graphs]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_only(workload, seed: int, spawned_at: float) -> dict:
    ready = []
    workload.loop(
        workload.prepare(seed), 0.0, max_ops=0,
        on_ready=lambda: ready.append(time.time()),
    )
    return {"setup_s": ready[0] - spawned_at}


def measured(workload, seed: int, seconds: float, spawned_at: float) -> dict:
    ready = []
    inputs = workload.prepare(seed)
    ops, wall = workload.loop(
        inputs, seconds, on_ready=lambda: ready.append(time.time())
    )
    peak = _peak_rss_mb()  # before the checks allocate anything
    ev = evaluate(workload, ops, wall)
    return {
        "setup_s": ready[0] - spawned_at,
        "peak_rss_mb": peak,
        "loop_s": wall,
        "attempted": ev.attempted,
        "failed": ev.failed,
        "problems": ev.problems,
        "metrics": ev.metrics,
        "samples": ev.samples,
    }


def traced(workload, seed: int, seconds: float, trace_dir: Path) -> dict:
    inputs = workload.prepare(seed)
    direct = workload.kind != "serve"
    ops_u, wall_u = workload.loop(inputs, seconds, max_ops=1 if direct else None)
    ev_u = evaluate(workload, ops_u, wall_u)

    clear_dataset_cache()  # so the traced pass times graph generation
    trace = LayerTrace()
    with trace:
        trace.armed = True
        inputs_t = workload.prepare(seed)
        trace.armed = False

        def arm() -> None:
            trace.armed = True

        ops_t, wall_t = workload.loop(
            inputs_t, math.inf, max_ops=len(ops_u), on_ready=arm
        )
    ev_t = evaluate(workload, ops_t, wall_t)

    metrics = layer_metrics(trace, ops_t if not direct else None)
    metrics["trace.overhead"] = (
        ev_t.metrics["partition_s"] / ev_u.metrics["partition_s"]
    )
    # pass-level checks: each failure counts as one more failed operation
    extra = reconciliation_errors(metrics)
    if _graph_digests(inputs) != _graph_digests(inputs_t):
        extra.append("traced pass generated different graphs")
    extra += [
        f"op {pos}: traced partition differs from the untraced one"
        for pos, (u, t) in enumerate(zip(ops_u, ops_t))
        if u.sha256 != t.sha256
    ]
    problems = [f"untraced {p}" for p in ev_u.problems]
    problems += [f"traced {p}" for p in ev_t.problems] + extra

    trace_dir.mkdir(parents=True, exist_ok=True)
    meta = {"workload": workload.name, "seed": seed}
    trace.write_chrome_trace(trace_dir / "trace.json", meta)
    layers_doc = {
        **meta,
        "metrics": metrics,
        "spans": {
            name: vars(row) for name, row in sorted(span_table(trace).items())
        },
        "partition_sha256": [op.sha256 for op in ops_t],
        "problems": problems,
    }
    (trace_dir / "layers.json").write_text(
        json.dumps(layers_doc, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return {
        "attempted": ev_u.attempted + ev_t.attempted,
        "failed": ev_u.failed + ev_t.failed + len(extra),
        "problems": problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        payload = setup_only(workload, args.seed, args.spawned_at)
    elif args.trace_dir is not None:
        payload = traced(workload, args.seed, args.seconds, args.trace_dir)
    else:
        payload = measured(workload, args.seed, args.seconds, args.spawned_at)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
