"""Ablation — sparse incremental maintenance vs per-batch Algorithm-2 rebuilds.

Full partitioner runs on the 2K-vertex quick-scale Low-Low graph,
identical except for ``SBPConfig.incremental_updates``, in ``_PAIRS``
pairs that alternate which variant runs first (so warm-up and drift
fall on both sides).  Every run must produce the same partition
byte for byte (the maintainer's exactness contract), and the
incremental variant's median ``blockmodel_update_s`` must be strictly
lower — the CI perf-smoke gate.  Every ``runtime_s`` and
``blockmodel_update_s`` sample, plus the median and quartiles of
end-to-end ``runtime_s`` per variant, is written to
``BENCH_incremental.json`` at the repository root.
"""

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device

_RESULTS = {"incremental": [], "rebuild": []}
_SIZE = 2_000
_SEED = 7
_CATEGORY = "low_low"
_PAIRS = 5


@pytest.fixture(scope="module")
def graph():
    return load_dataset(_CATEGORY, _SIZE)[0]


def _run(graph, incremental):
    config = SBPConfig(seed=_SEED, incremental_updates=incremental)
    return GSAPPartitioner(config, device=Device(A4000)).partition(graph)


def _alternating_pairs(graph):
    order = [("incremental", True), ("rebuild", False)]
    for _ in range(_PAIRS):
        for variant, incremental in order:
            _RESULTS[variant].append(_run(graph, incremental))
        order.reverse()


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def test_alternating_pairs(benchmark, graph):
    pedantic_once(benchmark, _alternating_pairs, graph)


def test_zzz_identity_and_report(benchmark, capsys):
    inc_runs, full_runs = _RESULTS["incremental"], _RESULTS["rebuild"]
    assert len(inc_runs) == len(full_runs) == _PAIRS
    # exactness: delta application must be indistinguishable from rebuilds
    reference = inc_runs[0]
    for result in inc_runs + full_runs:
        np.testing.assert_array_equal(result.partition, reference.partition)
        assert result.num_blocks == reference.num_blocks
        assert result.mdl == reference.mdl

    runtime = {
        variant: [r.total_time_s for r in runs]
        for variant, runs in _RESULTS.items()
    }
    update = {
        variant: [r.timings.blockmodel_update_s for r in runs]
        for variant, runs in _RESULTS.items()
    }
    inc_s = float(np.median(update["incremental"]))
    full_s = float(np.median(update["rebuild"]))
    ratio = pedantic_once(benchmark, lambda: full_s / inc_s)
    runtime_stats = {v: _quartiles(s) for v, s in runtime.items()}
    end_to_end = (runtime_stats["rebuild"]["median"]
                  / runtime_stats["incremental"]["median"])
    wins = sum(i < f for i, f in zip(runtime["incremental"],
                                     runtime["rebuild"]))

    workloads = [
        ablation_workload(
            f"GSAP/{_CATEGORY}/{_SIZE}#{variant}",
            runtime_s=runtime[variant],
            sim_time_s=[r.sim_time_s for r in runs],
            category=_CATEGORY, num_vertices=_SIZE, variant=variant,
            phases={"blockmodel_update_s": update[variant]},
            quality={"mdl": [r.mdl for r in runs],
                     "num_blocks": [r.num_blocks for r in runs]},
        )
        for variant, runs in _RESULTS.items()
    ]
    out = write_bench_record(
        "incremental", workloads, seed=_SEED, repeats=_PAIRS,
        label="incremental_blockmodel_maintenance",
        extras={
            "pairs": _PAIRS,
            "runtime_s": runtime_stats,
            "end_to_end_speedup": end_to_end,
            "incremental_faster_pairs": wins,
            "blockmodel_update_s": {"incremental": inc_s, "rebuild": full_s},
            "speedup": ratio,
            "partitions_identical": True,
        },
        filename="BENCH_incremental.json",
    )

    inc_rt, full_rt = runtime_stats["incremental"], runtime_stats["rebuild"]
    with capsys.disabled():
        print(f"\n\n### Ablation: incremental maintenance vs per-batch "
              f"rebuild ({_CATEGORY} V={_SIZE}, {_PAIRS} pairs) — "
              f"runtime median {inc_rt['median']:.2f} s "
              f"(IQR {inc_rt['q1']:.2f}–{inc_rt['q3']:.2f}) vs "
              f"{full_rt['median']:.2f} s "
              f"(IQR {full_rt['q1']:.2f}–{full_rt['q3']:.2f}), "
              f"incremental faster in {wins}/{_PAIRS} pairs; "
              f"blockmodel_update_s {ratio:.2f}x "
              f"({inc_s*1e3:.0f} ms vs {full_s*1e3:.0f} ms); "
              f"partitions byte-identical; wrote {out.name}")
    # CI perf-smoke gate: the incremental path must win outright
    assert ratio > 1.0
