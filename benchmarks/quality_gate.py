"""Statistical quality gate: a seed sweep over the four graph categories.

A change that is meant to alter GSAP's output (a different float order
in ΔMDL, a different RNG draw) cannot be checked against golden hashes.
This gate checks instead that the partitions stay *as good*: it runs
GSAP on :data:`SEEDS` × the four Table 1 categories (Kao et al.,
*Streaming Graph Challenge*) at :data:`NUM_VERTICES` vertices and
compares, per category, the distribution of

* ``mdl_ratio`` — the final MDL over the planted partition's MDL on the
  same graph (lower is better), and
* ``nmi`` against the planted partition (higher is better)

with the committed distribution in ``BENCH_quality.json``.  A category
fails when the one-sided Mann-Whitney p (worse direction) is below
:data:`P_MAX` *and* Cliff's δ in the worse direction reaches
:data:`DELTA_MIN`.  The record also carries ``ReferenceSBP`` on the same
seeds, the anchor for the CPU engines' shared code: ``check`` sweeps
every engine of :data:`ENGINES` and gates each against its own recorded
samples, one table per engine, and fails if any engine fails.

Usage (``PYTHONPATH=src``)::

    python benchmarks/quality_gate.py record  # re-record GSAP + the anchor
    python benchmarks/quality_gate.py check   # the gate, GSAP and the anchor
    python benchmarks/quality_gate.py power   # both known-worse variants
                                              # fail, an A/A run passes
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import GSAPPartitioner, SBPConfig
from repro.baselines import ReferenceSBP
from repro.blockmodel.entropy import description_length
from repro.gpusim import A4000, Device
from repro.graph.datasets import CATEGORIES, load_dataset
from repro.integrity.auditor import reference_blockmodel
from repro.metrics import nmi
from repro.perf.record import load_record, new_record, new_workload, write_record
from repro.perf.stats import cliffs_delta, mann_whitney

RECORD = Path(__file__).resolve().parent.parent / "BENCH_quality.json"
NUM_VERTICES = 300
SEEDS = tuple(range(16))
#: fail a category when one-sided p < P_MAX and δ (worse) >= DELTA_MIN
P_MAX = 0.01
DELTA_MIN = 0.33
#: the engines the record holds; ``check`` gates each on its own samples
ENGINES = ("GSAP", "ReferenceSBP")
#: metric -> True when higher is better
METRICS = {"mdl_ratio": False, "nmi": True}
#: the known-worse variants the gate must fail, as SBPConfig overrides
WORSE_VARIANTS = ({"max_num_nodal_itr": 1}, {"num_proposals": 1})
#: the A/A run's seeds start here, disjoint from SEEDS
AA_SEED_OFFSET = 16


def gate_config(seed: int, **overrides) -> SBPConfig:
    """The repo benchmark's pinned settings, plus *overrides*."""
    config = SBPConfig(
        seed=seed,
        max_num_nodal_itr=30,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
    )
    return dataclasses.replace(config, **overrides)


def run_one(algorithm: str, category: str, seed: int, overrides: dict) -> dict:
    """One partition of one sampled graph; the per-run quality sample."""
    graph, truth = load_dataset(category, NUM_VERTICES, seed)
    config = gate_config(seed, **overrides)
    if algorithm == "GSAP":
        engine = GSAPPartitioner(config, device=Device(A4000))
    else:
        engine = ReferenceSBP(config)
    t0 = time.perf_counter()
    result = engine.partition(graph)
    runtime = time.perf_counter() - t0
    planted = description_length(
        reference_blockmodel(graph, truth, int(truth.max()) + 1),
        graph.num_vertices, graph.total_edge_weight,
    )
    return {
        "runtime_s": runtime,
        "sim_time_s": float(result.sim_time_s),
        "mdl": float(result.mdl),
        "mdl_ratio": float(result.mdl) / planted,
        "nmi": float(nmi(result.partition, truth)),
        "num_blocks": int(result.num_blocks),
        "num_edges": int(graph.num_edges),
    }


def sweep(
    algorithm: str = "GSAP",
    seeds=SEEDS,
    overrides: Optional[dict] = None,
) -> Dict[str, dict]:
    """Per category, one list per sample family over *seeds*."""
    out: Dict[str, dict] = {}
    for category in CATEGORIES:
        runs = [run_one(algorithm, category, s, overrides or {}) for s in seeds]
        out[category] = {k: [r[k] for r in runs] for k in runs[0]}
        out[category]["seeds"] = list(seeds)
        print(f"  {algorithm:12s} {category:9s} "
            f"mdl_ratio median {np.median(out[category]['mdl_ratio']):.4f}  "
            f"nmi median {np.median(out[category]['nmi']):.4f}")
    return out


def build_record(runs: Dict[str, Dict[str, dict]], label: str) -> dict:
    """A ``gsap-bench-record/1`` record: one workload per (algorithm, category)."""
    record = new_record(label=label, seed=SEEDS[0], repeats=len(SEEDS))
    record["gate"] = {
        "num_vertices": NUM_VERTICES, "p_max": P_MAX, "delta_min": DELTA_MIN,
        "metrics": {m: ("higher" if hi else "lower") for m, hi in METRICS.items()},
        "config": {k: v for k, v in dataclasses.asdict(gate_config(0)).items()
                   if isinstance(v, (int, float)) and k != "seed"},
    }
    for algorithm, per_category in runs.items():
        for category, samples in per_category.items():
            wl = new_workload(
                key=f"{algorithm}/{category}/{NUM_VERTICES}",
                algorithm=algorithm, category=category,
                num_vertices=NUM_VERTICES,
                num_edges=int(np.median(samples["num_edges"])),
                variant="seed-sweep",
            )
            wl["seeds"] = samples["seeds"]
            wl["samples"] = {k: samples[k] for k in ("runtime_s", "sim_time_s")}
            wl["quality"] = {
                k: samples[k] for k in ("mdl", "mdl_ratio", "nmi", "num_blocks")
            }
            record["workloads"].append(wl)
    return record


def baseline_samples(record: dict, algorithm: str = "GSAP") -> Dict[str, dict]:
    """Per category, the recorded quality samples of *algorithm*."""
    return {
        wl["category"]: wl["quality"]
        for wl in record["workloads"] if wl["algorithm"] == algorithm
    }


def compare(baseline: Dict[str, dict], candidate: Dict[str, dict]) -> List[dict]:
    """One verdict per (category, metric): one-sided p and δ, worse-signed.

    ``delta`` is Cliff's δ oriented so that a positive value means the
    candidate is worse than the baseline.
    """
    verdicts = []
    for category in CATEGORIES:
        for metric, higher_better in METRICS.items():
            base = baseline[category][metric]
            cand = candidate[category][metric]
            worse = "less" if higher_better else "greater"
            _, p = mann_whitney(cand, base, alternative=worse)
            delta = cliffs_delta(cand, base) * (-1.0 if higher_better else 1.0)
            verdicts.append({
                "category": category, "metric": metric,
                "baseline_median": float(np.median(base)),
                "candidate_median": float(np.median(cand)),
                "p_worse": p, "delta_worse": delta,
                "fail": p < P_MAX and delta >= DELTA_MIN,
            })
    return verdicts


def report(verdicts: List[dict], log=print) -> bool:
    """Print the verdict table; True when every category passes."""
    for v in verdicts:
        log(f"  {v['category']:9s} {v['metric']:9s} "
            f"{v['baseline_median']:.4f} -> {v['candidate_median']:.4f}  "
            f"p(worse) {v['p_worse']:.4f}  delta(worse) {v['delta_worse']:+.3f}"
            f"  {'FAIL' if v['fail'] else 'pass'}")
    return not any(v["fail"] for v in verdicts)


def run_gate(
    record: dict,
    algorithm: str,
    overrides: Optional[dict] = None,
    seed_offset: int = 0,
) -> bool:
    """Re-run *algorithm*'s sweep (shifted by *seed_offset*) and gate it
    on its own samples in *record*."""
    seeds = tuple(s + seed_offset for s in SEEDS)
    candidate = sweep(algorithm, seeds, overrides)
    return report(compare(baseline_samples(record, algorithm), candidate))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser(
        "record", help="record the current code's distribution and the anchor"
    ).add_argument("--out", default=str(RECORD))
    for name, text in (("check", "gate the current code on the record"),
                       ("power", "known-worse variants fail, A/A passes")):
        sub.add_parser(name, help=text).add_argument(
            "--baseline", default=str(RECORD))
    args = parser.parse_args(argv)

    if args.cmd == "record":
        runs = {algorithm: sweep(algorithm) for algorithm in ENGINES}
        write_record(build_record(runs, "quality-gate"), args.out)
        print(f"wrote {args.out}")
        return 0

    record = load_record(args.baseline)
    if args.cmd == "check":
        ok = True
        for algorithm in ENGINES:
            print(f"{algorithm} against its recorded samples:")
            ok &= run_gate(record, algorithm)
        print("quality gate:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    expectations = [(dict(v), 0, False) for v in WORSE_VARIANTS]
    expectations.append(({}, AA_SEED_OFFSET, True))
    all_met = True
    for overrides, offset, should_pass in expectations:
        print(f"variant {overrides or 'A/A'} (seeds +{offset}): "
              f"expected {'pass' if should_pass else 'FAIL'}")
        met = run_gate(record, "GSAP", overrides, offset) == should_pass
        print("  ->", "as expected" if met else "NOT as expected")
        all_met &= met
    print("gate power:", "PASS" if all_met else "FAIL")
    return 0 if all_met else 1


if __name__ == "__main__":
    sys.exit(main())
