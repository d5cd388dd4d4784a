"""Ablation — the all-to-all bottleneck of distributed SBP (EDiSt).

The paper's related-work section motivates GSAP over distributed SBP
partly because "the all-to-all communication pattern in EDiSt becomes a
significant bottleneck as the number of nodes increases".  This bench
runs the simulated EDiSt engine at increasing rank counts on the same
graph and reports the communication volume: bytes on the wire grow
~linearly with ranks for the same move traffic, while partition quality
stays flat — scaling nodes buys parallelism but pays quadratic message
count, exactly the trade the paper cites.

A second phase runs the **comm fault matrix** over the message-passing
runtime (``docs/distributed.md``): the same workload under frame drops,
corruption, duplication + reordering, and a mid-run rank crash.  Message
faults must be absorbed with a byte-identical partition (they live below
the CRC/sequence machinery); the crash run must recover and land within
MDL tolerance of the fault-free run.

The rank sweep runs with observability enabled, so every run also
carries the rank-lane timeline (:class:`repro.dist.RankLanes`).  From
the simulated parallel wall clock we derive the **strong-scaling
curve** — speedup vs the 1-rank run, parallel efficiency
(speedup/ranks) and the load-imbalance factor — recorded under the
bench record's ``scaling`` section so ``gsap perf compare`` can flag
curve drift between record generations.  One run's ~0.1 s of lane
compute moves by more than the curve's effects, so the sweep runs
:data:`REPEATS` times, rank counts interleaved within each repeat.
Repeat ``k``'s speedup at ``r`` ranks is its 1-rank lane clock over its
``r``-rank one; each point carries the medians over the repeats and the
speedup's range, and ``extras.scaling_samples`` keeps every sample.
"""

import statistics

import numpy as np
import pytest

from _bench_utils import ablation_workload, pedantic_once, write_bench_record
from repro.baselines.edist import EDiStPartitioner
from repro.bench.workloads import bench_config
from repro.graph.datasets import load_dataset
from repro.metrics import nmi
from repro.resilience.faults import FaultPlan, FaultSpec

_RESULTS = {}
_FAULT_RESULTS = {}
RANK_COUNTS = (1, 2, 4, 8)
#: rank sweeps; each scaling point is a median over them
REPEATS = 3

#: the comm-fault matrix: scenario name -> fault plan (4 ranks)
FAULT_SCENARIOS = {
    "clean": FaultPlan(),
    "drop": FaultPlan([FaultSpec(kind="msg_drop", at=3, count=4)]),
    "corrupt": FaultPlan(
        [FaultSpec(kind="msg_corrupt", at=8, count=4, index=13, bit=5)]
    ),
    "dup+reorder": FaultPlan([
        FaultSpec(kind="msg_duplicate", at=4, count=6),
        FaultSpec(kind="msg_reorder", at=2, count=6),
    ]),
    "rank_crash": FaultPlan([FaultSpec(kind="rank_crash", at=6, rank=2)]),
}


def _rank_run(graph, truth, ranks):
    """One lanes-enabled EDiSt run at *ranks* ranks."""
    # observability on: the lanes' simulated parallel clock is the
    # strong-scaling measurement (tracing never perturbs the RNG, so
    # the partition is byte-identical to an untraced run)
    config = bench_config(seed=4)
    config = config.replace(
        observability=config.observability.replace(enabled=True)
    )
    partitioner = EDiStPartitioner(config, num_ranks=ranks)
    result = partitioner.partition(graph)
    lanes = partitioner.lanes
    summary = lanes.summary()
    return {
        "bytes_sent": partitioner.comm.bytes_sent,
        "messages": partitioner.comm.messages,
        "nmi": nmi(result.partition, truth),
        "runtime_s": result.total_time_s,
        "lane_wall_s": lanes.clock_s,
        "rounds": len(lanes.rounds),
        "imbalance": summary["imbalance"],
        "compute_s": summary["critical_path"]["compute_s"],
        "comm_s": summary["critical_path"]["comm_s"],
    }


def test_edist_rank_sweep(benchmark):
    graph, truth = load_dataset("low_low", 200, seed=1)

    def sweep():
        for _ in range(REPEATS):
            for ranks in RANK_COUNTS:
                _RESULTS.setdefault(ranks, []).append(
                    _rank_run(graph, truth, ranks)
                )

    pedantic_once(benchmark, sweep)


@pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
def test_edist_comm_fault_matrix(benchmark, scenario):
    graph, truth = load_dataset("low_low", 200, seed=1)
    partitioner = EDiStPartitioner(
        bench_config(seed=4), num_ranks=4,
        fault_plan=FAULT_SCENARIOS[scenario],
    )
    result = pedantic_once(benchmark, partitioner.partition, graph)
    comm = partitioner.comm
    _FAULT_RESULTS[scenario] = {
        "partition": np.asarray(result.partition).copy(),
        "mdl": result.mdl,
        "nmi": nmi(result.partition, truth),
        "runtime_s": result.total_time_s,
        "retransmits": comm.retransmits,
        "faults": (comm.dropped_frames + comm.corrupt_frames
                   + comm.duplicate_frames + comm.reorder_events),
        "crashes": comm.crashes,
        "recoveries": comm.recoveries,
        "recovery_s": comm.recovery_s,
        "backoff_s": comm.backoff_s,
    }


def test_zzz_report(benchmark, capsys):
    assert set(_RESULTS) == set(RANK_COUNTS)
    assert all(len(runs) == REPEATS for runs in _RESULTS.values())
    assert set(_FAULT_RESULTS) == set(FAULT_SCENARIOS)
    # every repeat draws the same partition: only the clocks move
    for runs in _RESULTS.values():
        for key in ("bytes_sent", "messages", "nmi", "rounds"):
            assert len({run[key] for run in runs}) == 1, key
    rows = pedantic_once(
        benchmark,
        lambda: [(k, _RESULTS[k][0]["bytes_sent"], _RESULTS[k][0]["messages"],
                  _RESULTS[k][0]["nmi"]) for k in sorted(_RESULTS)],
    )
    fault_rows = [(k, _FAULT_RESULTS[k]) for k in sorted(_FAULT_RESULTS)]
    # strong-scaling curve off the simulated parallel lane clock: repeat
    # k's speedup pairs its own 1-rank and r-rank runs
    samples = {}
    scaling_points = []
    for ranks in sorted(_RESULTS):
        runs = _RESULTS[ranks]
        speedups = [
            one["lane_wall_s"] / run["lane_wall_s"]
            for one, run in zip(_RESULTS[1], runs)
        ]
        samples[str(ranks)] = {
            "lane_wall_s": [run["lane_wall_s"] for run in runs],
            "speedup": speedups,
            "imbalance": [run["imbalance"] for run in runs],
            "compute_s": [run["compute_s"] for run in runs],
            "comm_s": [run["comm_s"] for run in runs],
        }
        median = {k: statistics.median(v) for k, v in samples[str(ranks)].items()}
        scaling_points.append({
            "value": ranks,
            "repeats": len(runs),
            "lane_wall_s": median["lane_wall_s"],
            "speedup": median["speedup"],
            "speedup_min": min(speedups),
            "speedup_max": max(speedups),
            "efficiency": median["speedup"] / ranks,
            "imbalance": median["imbalance"],
            "rounds": runs[0]["rounds"],
            "compute_s": median["compute_s"],
            "comm_s": median["comm_s"],
        })
    write_bench_record(
        "ablation_distributed",
        [
            ablation_workload(
                f"EDiSt/low_low/200#ranks={ranks}",
                runtime_s=[run["runtime_s"] for run in _RESULTS[ranks]],
                algorithm="EDiSt", category="low_low", num_vertices=200,
                variant=f"ranks={ranks}",
                quality={"nmi": [run["nmi"] for run in _RESULTS[ranks]]},
            )
            for ranks in sorted(_RESULTS)
        ] + [
            ablation_workload(
                f"EDiSt/low_low/200#fault={scenario}",
                runtime_s=[m["runtime_s"]],
                algorithm="EDiSt", category="low_low", num_vertices=200,
                variant=f"fault={scenario}",
                quality={"nmi": [m["nmi"]], "mdl": [m["mdl"]]},
            )
            for scenario, m in fault_rows
        ],
        seed=4, repeats=REPEATS, label="edist_all_to_all_volume",
        scaling={"dimension": "ranks", "points": scaling_points},
        extras={
            "bytes_on_wire": {str(r): n for r, n, _, _ in rows},
            "messages": {str(r): m for r, _, m, _ in rows},
            "scaling_samples": samples,
            "fault_matrix": {
                scenario: {
                    "faults_injected": m["faults"],
                    "retransmits": m["retransmits"],
                    "crashes": m["crashes"],
                    "recoveries": m["recoveries"],
                    "recovery_s": m["recovery_s"],
                    "backoff_s": m["backoff_s"],
                    "mdl": m["mdl"],
                    "nmi": m["nmi"],
                }
                for scenario, m in fault_rows
            },
        },
    )
    with capsys.disabled():
        print("\n\n### Ablation: EDiSt all-to-all volume vs rank count "
              "(low_low, 200 vertices)\n")
        print("| ranks | bytes on wire | messages | NMI |")
        print("|---|---|---|---|")
        for ranks, nbytes, messages, quality in rows:
            print(f"| {ranks} | {nbytes:,} | {messages:,} | {quality:.3f} |")
        print("\n### Strong scaling (simulated parallel lane clock, "
              f"median of {REPEATS} repeats)\n")
        print("| ranks | lane wall s | speedup [min–max] | efficiency "
              "| imbalance |")
        print("|---|---|---|---|---|")
        for pt in scaling_points:
            print(f"| {pt['value']} | {pt['lane_wall_s']:.4f} | "
                  f"{pt['speedup']:.2f} [{pt['speedup_min']:.2f}–"
                  f"{pt['speedup_max']:.2f}] | {pt['efficiency']:.2f} | "
                  f"{pt['imbalance']:.3f} |")
        print("\n### Comm fault matrix (EDiSt, 4 ranks)\n")
        print("| scenario | faults | retransmits | crashes | NMI | MDL |")
        print("|---|---|---|---|---|---|")
        for scenario, m in fault_rows:
            print(f"| {scenario} | {m['faults']} | {m['retransmits']} | "
                  f"{m['crashes']} | {m['nmi']:.3f} | {m['mdl']:.1f} |")
    # communication grows with rank count; quality does not improve
    volumes = [v for _, v, _, _ in rows]
    assert volumes == sorted(volumes)
    assert volumes[-1] > volumes[1] > volumes[0] == 0
    # the scaling curve must be sane: the 1-rank point is the speedup
    # anchor, multi-rank runs beat it, efficiency stays in (0, ~1]
    assert scaling_points[0] == next(
        pt for pt in scaling_points if pt["value"] == 1
    )
    assert scaling_points[0]["speedup"] == 1.0
    for pt in scaling_points[1:]:
        assert pt["speedup"] > 1.0, (
            f"no parallel speedup at ranks={pt['value']}"
        )
        assert 0.0 < pt["efficiency"] <= 1.25
        assert pt["imbalance"] >= 1.0
    # oracle 1: message faults never change the answer
    clean = _FAULT_RESULTS["clean"]
    for scenario in ("drop", "corrupt", "dup+reorder"):
        m = _FAULT_RESULTS[scenario]
        assert m["faults"] > 0 and m["mdl"] == clean["mdl"]
        np.testing.assert_array_equal(m["partition"], clean["partition"])
    # oracle 2: the crash run recovers and lands within MDL tolerance
    crash = _FAULT_RESULTS["rank_crash"]
    assert crash["crashes"] == 1 and crash["recoveries"] == 1
    assert crash["mdl"] <= clean["mdl"] * 1.05
