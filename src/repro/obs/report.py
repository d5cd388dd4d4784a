"""Run reports: per-run Markdown/JSON summaries from captured telemetry.

:func:`build_run_report` condenses a finished
:class:`~repro.core.result.PartitionResult` (plus, when available, the
run's :class:`~repro.obs.hub.Observability` hub and the device profiler)
into one plain dictionary reproducing the paper's evidence figures from
captured data:

* the Fig. 10 per-phase runtime breakdown (seconds and shares, exactly
  matching ``PhaseTimings`` — the report is a view, not a re-measure);
* the golden-section convergence trajectory (block count + MDL per
  plateau, the Fig. 2 search path);
* Fig. 11's per-proposal averages and the Fig. 12 blockmodel-update
  share of the vertex-move phase;
* MCMC acceptance rate and ΔMDL quantiles when metrics were captured;
* kernel and per-phase tables from the device profiler;
* what the resilience subsystem absorbed.

:func:`run_report_markdown` renders the same dictionary as Markdown;
:func:`write_run_report` writes either form based on file extension.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Union

from ..atomicio import atomic_write_text
from ..envinfo import environment_fingerprint
from .hub import Observability
from .metrics import Histogram

PathLike = Union[str, os.PathLike]

REPORT_SCHEMA = "gsap-run-report/1"

_PHASE_FIELDS = (
    ("block_merge", "block_merge_s"),
    ("vertex_move", "vertex_move_s"),
    ("golden_section", "golden_section_s"),
)


def build_run_report(
    result,
    *,
    obs: Optional[Observability] = None,
    profiler=None,
    dataset: Optional[str] = None,
) -> dict:
    """Build the report dictionary for one finished run.

    ``result`` is a :class:`~repro.core.result.PartitionResult` (duck-
    typed to keep this module import-light).  ``profiler`` is the
    device's :class:`~repro.gpusim.profiler.Profiler`, for kernel-level
    tables.
    """
    timings = result.timings
    total = timings.total_s
    phases = [
        {
            "phase": phase,
            "seconds": getattr(timings, attr),
            "share": (getattr(timings, attr) / total) if total > 0 else 0.0,
        }
        for phase, attr in _PHASE_FIELDS
    ]
    report: dict = {
        "schema": REPORT_SCHEMA,
        # provenance: same fingerprint block bench records carry, so a
        # report and a bench number can be traced to one environment
        "environment": environment_fingerprint(),
        "run": {
            "algorithm": result.algorithm,
            "dataset": dataset,
            "num_blocks": result.num_blocks,
            "mdl": result.mdl,
            "converged": result.converged,
            "cancelled": getattr(result, "cancelled", None),
            "timed_out": bool(getattr(result, "timed_out", False)),
            "num_sweeps": result.num_sweeps,
            "total_time_s": result.total_time_s,
            "sim_time_s": result.sim_time_s,
        },
        "phase_breakdown": {
            "total_s": total,
            "phases": phases,
            # Fig. 12: rebuild time is a tracked subset of vertex_move.
            "blockmodel_update_s": timings.blockmodel_update_s,
            "vertex_move_mcmc_s": (
                timings.vertex_move_s - timings.blockmodel_update_s
            ),
        },
        "convergence": {
            "trajectory": [
                {"plateau": i, "num_blocks": int(b), "mdl": float(m)}
                for i, (b, m) in enumerate(result.history)
            ],
        },
        "proposals": {
            "merge_proposals": result.proposal_stats.merge_proposals,
            "merge_avg_s": result.proposal_stats.merge_avg_s(),
            "move_proposals": result.proposal_stats.move_proposals,
            "move_avg_s": result.proposal_stats.move_avg_s(),
        },
        "resilience": result.resilience.to_dict(),
        "integrity": result.integrity.to_dict(),
    }
    if result.dist is not None:
        report["dist"] = dict(result.dist)

    if obs is not None and obs.enabled:
        proposals = obs.metrics.get("mcmc_proposals_total")
        accepted = obs.metrics.get("mcmc_moves_accepted_total")
        mcmc: dict = {}
        if proposals is not None:
            mcmc["proposals"] = proposals.value
        if accepted is not None:
            mcmc["accepted"] = accepted.value
        if proposals is not None and accepted is not None and proposals.value:
            mcmc["acceptance_rate"] = accepted.value / proposals.value
        delta = obs.metrics.get("mcmc_delta_mdl")
        if isinstance(delta, Histogram) and delta.count:
            mcmc["delta_mdl"] = {
                "count": delta.count,
                "mean": delta.mean,
                "p05": delta.quantile(0.05),
                "p50": delta.quantile(0.5),
                "p95": delta.quantile(0.95),
            }
        if mcmc:
            report["mcmc"] = mcmc
        inc = obs.metrics.get("blockmodel_incremental_updates_total")
        if inc is not None:
            report["blockmodel"] = {"incremental_updates": inc.value}
        report["metrics"] = obs.metrics.snapshot()

    if profiler is not None:
        kernels = sorted(
            profiler.by_kernel().values(),
            key=lambda s: s.wall_time_s,
            reverse=True,
        )
        report["kernels"] = [
            {
                "name": s.phase,  # by_kernel() keys summaries by kernel name
                "launches": s.num_launches,
                "wall_time_s": s.wall_time_s,
                "sim_time_s": s.sim_time_s,
                "bytes_moved": s.bytes_moved,
            }
            for s in kernels
        ]
        report["device_phases"] = {
            phase: {
                "wall_time_s": s.wall_time_s,
                "sim_time_s": s.sim_time_s,
                "launches": s.num_launches,
            }
            for phase, s in sorted(profiler.by_phase().items())
        }
    return report


def _pct(share: float) -> str:
    return f"{share * 100.0:.1f}%"


def run_report_markdown(report: dict) -> str:
    """Render a report dictionary as a human-readable Markdown document."""
    run = report["run"]
    lines: List[str] = [
        f"# GSAP run report — {run['algorithm'] or 'unknown'}",
        "",
        f"- dataset: {run.get('dataset') or 'n/a'}",
        f"- blocks found: **{run['num_blocks']}** (MDL {run['mdl']:.2f})",
        f"- converged: {run['converged']}",
    ]
    if run.get("timed_out"):
        lines.append("- **timed out**: deadline fired; best partition found")
    elif run.get("cancelled"):
        lines.append(f"- cancelled: {run['cancelled']} (best-effort result)")
    lines += [
        f"- MCMC sweeps: {run['num_sweeps']}",
        f"- wall time: {run['total_time_s']:.3f}s"
        + (f" / sim device time: {run['sim_time_s'] * 1e3:.1f}ms"
           if run["sim_time_s"] else ""),
        "",
        "## Phase breakdown (Fig. 10)",
        "",
        "| phase | seconds | share |",
        "|---|---:|---:|",
    ]
    breakdown = report["phase_breakdown"]
    for row in breakdown["phases"]:
        lines.append(
            f"| {row['phase']} | {row['seconds']:.4f} | {_pct(row['share'])} |"
        )
    lines.append(f"| **total** | {breakdown['total_s']:.4f} | 100.0% |")
    lines += [
        "",
        f"Blockmodel update (Fig. 12 subset of vertex_move): "
        f"{breakdown['blockmodel_update_s']:.4f}s; "
        f"MCMC proposal/accept work: {breakdown['vertex_move_mcmc_s']:.4f}s.",
        "",
        "## Convergence trajectory",
        "",
        "| plateau | blocks | MDL |",
        "|---:|---:|---:|",
    ]
    for row in report["convergence"]["trajectory"]:
        lines.append(
            f"| {row['plateau']} | {row['num_blocks']} | {row['mdl']:.2f} |"
        )

    proposals = report["proposals"]
    lines += [
        "",
        "## Proposal throughput (Fig. 11)",
        "",
        f"- merge proposals: {proposals['merge_proposals']} "
        f"(avg {proposals['merge_avg_s'] * 1e6:.2f}µs each)",
        f"- move proposals: {proposals['move_proposals']} "
        f"(avg {proposals['move_avg_s'] * 1e6:.2f}µs each)",
    ]

    mcmc = report.get("mcmc")
    if mcmc:
        lines += ["", "## MCMC telemetry", ""]
        if "acceptance_rate" in mcmc:
            lines.append(
                f"- Metropolis–Hastings acceptance rate: "
                f"{mcmc['acceptance_rate'] * 100.0:.2f}% "
                f"({int(mcmc['accepted'])}/{int(mcmc['proposals'])})"
            )
        delta = mcmc.get("delta_mdl")
        if delta:
            lines.append(
                f"- ΔMDL per proposal: mean {delta['mean']:.4f}, "
                f"p05 {delta['p05']:.4f}, p50 {delta['p50']:.4f}, "
                f"p95 {delta['p95']:.4f} (n={delta['count']})"
            )

    bm = report.get("blockmodel")
    if bm:
        lines += [
            "",
            "## Blockmodel maintenance",
            "",
            f"- incremental updates: {int(bm['incremental_updates'])}",
        ]

    kernels = report.get("kernels")
    if kernels:
        lines += [
            "",
            "## Kernels (by wall time)",
            "",
            "| kernel | launches | wall s | sim s |",
            "|---|---:|---:|---:|",
        ]
        for row in kernels[:12]:
            lines.append(
                f"| {row['name']} | {row['launches']} | "
                f"{row['wall_time_s']:.4f} | {row['sim_time_s']:.6f} |"
            )

    res = report.get("resilience") or {}
    if res.get("faults_absorbed") or res.get("degradations"):
        lines += [
            "",
            "## Resilience",
            "",
            f"- faults absorbed: {res.get('faults_absorbed', 0)} "
            f"({res.get('retries', 0)} retries)",
        ]
        for event in res.get("degradations", []):
            lines.append(f"- degraded: {event}")

    integ = report.get("integrity") or {}
    if integ.get("audits") or integ.get("corruptions_detected"):
        lines += [
            "",
            "## Integrity",
            "",
            f"- invariant audits: {integ.get('audits', 0)}",
            f"- corruptions detected: "
            f"{integ.get('corruptions_detected', 0)}",
            f"- repairs: {integ.get('repairs', 0)}",
        ]
        for rung, n in sorted((integ.get("repairs_by_rung") or {}).items()):
            lines.append(f"- repaired via {rung}: {n}")
        for violation in integ.get("violations", []):
            lines.append(f"- violation: {violation}")

    dist = report.get("dist")
    if dist:
        lines += [
            "",
            "## Distributed runtime",
            "",
            f"- ranks: {dist.get('num_ranks', 0)} configured, "
            f"{len(dist.get('live_ranks', []))} alive at run end",
            f"- all-to-all: {dist.get('rounds', 0)} rounds, "
            f"{dist.get('messages', 0)} messages, "
            f"{dist.get('bytes_sent', 0)} bytes "
            f"(+{dist.get('heartbeats', 0)} heartbeats)",
        ]
        if dist.get("retransmits") or dist.get("dropped_frames") or (
            dist.get("corrupt_frames") or dist.get("duplicate_frames")
            or dist.get("reorder_events")
        ):
            lines.append(
                f"- faults absorbed: {dist.get('dropped_frames', 0)} "
                f"dropped, {dist.get('corrupt_frames', 0)} corrupt, "
                f"{dist.get('duplicate_frames', 0)} duplicated, "
                f"{dist.get('reorder_events', 0)} reordered -> "
                f"{dist.get('retransmits', 0)} retransmits "
                f"({dist.get('backoff_s', 0.0):.4f}s simulated backoff)"
            )
        if dist.get("crashes"):
            lines.append(
                f"- rank crashes: {dist.get('crashes', 0)} detected "
                f"(dead: {dist.get('dead_ranks', [])}), "
                f"{dist.get('recoveries', 0)} recoveries in "
                f"{dist.get('recovery_s', 0.0):.4f}s simulated"
            )
        if dist.get("empty_shards"):
            lines.append(
                f"- empty shards: {dist.get('empty_shards', 0)} "
                f"(more ranks than vertices)"
            )
        analysis = dist.get("analysis")
        if analysis:
            cp = analysis.get("critical_path", {})
            total = cp.get("total_s") or 1.0
            straggler = analysis.get("straggler")
            lines.append(
                f"- simulated parallel wall time: "
                f"{analysis.get('wall_s', 0.0):.4f}s over "
                f"{analysis.get('rounds', 0)} round(s); load-imbalance "
                f"factor {analysis.get('imbalance', 1.0):.3f}"
            )
            if straggler:
                lines.append(
                    f"- straggler: rank {straggler['rank']} set the "
                    f"barrier in {straggler['rounds_led']} round(s) "
                    f"(excess {straggler['excess_s']:.4f}s max-minus-median)"
                )
            lines.append(
                f"- critical path: compute {cp.get('compute_s', 0.0):.4f}s "
                f"({_pct(cp.get('compute_s', 0.0) / total)}), "
                f"comm {cp.get('comm_s', 0.0):.4f}s "
                f"({_pct(cp.get('comm_s', 0.0) / total)}), "
                f"retransmit {cp.get('retransmit_s', 0.0):.4f}s, "
                f"recovery {cp.get('recovery_s', 0.0):.4f}s"
            )
            waits = analysis.get("barrier_wait_s") or {}
            if waits:
                worst = max(waits, key=lambda r: waits[r])
                lines.append(
                    f"- barrier wait: worst rank {worst} idled "
                    f"{waits[worst]:.4f}s at round barriers"
                )

    env = report.get("environment")
    if env:
        lines += [
            "",
            "## Environment",
            "",
            f"- python {env.get('python')} ({env.get('implementation')}), "
            f"numpy {env.get('numpy')}",
            f"- {env.get('platform')}/{env.get('machine')}, "
            f"bench scale {env.get('bench_scale')}",
            f"- git {env.get('git_sha') or 'unknown'}",
        ]
    return "\n".join(lines) + "\n"


def write_run_report(report: dict, path: PathLike) -> Path:
    """Write *report* to *path*: JSON when it ends in ``.json``, else MD.

    The write is atomic (temp + rename) like every obs file output.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        atomic_write_text(path, json.dumps(report, indent=2))
    else:
        atomic_write_text(path, run_report_markdown(report))
    return path
