"""Statistically-gated comparison of two bench records.

The comparator diffs a candidate record against a baseline at two
granularities:

* **workload** — end-to-end ``runtime_s`` (and simulated device time)
  per workload key;
* **kernel** — per-``phase/kernel`` wall time inside each workload, so
  a regression report can say *"segmented_reduce in vertex_move got
  1.4× slower even though total runtime held"*.

A verdict is ``regression``/``improvement`` only when **both** gates
fire: the median ratio clears the tolerance *and* the Mann–Whitney
rank test reaches significance (``p <= alpha``).  Requiring both keeps
A/A comparisons of identical code robustly ``neutral`` (their ratio
sits inside the tolerance band even when tiny samples make rank tests
twitchy) while a genuine slowdown moves ratio and ranks together.

Kernels faster than ``min_kernel_s`` (median, per run) are skipped:
micro-kernel wall times are dominated by scheduler noise and would
otherwise spray false verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..envinfo import fingerprint_mismatches
from .record import workload_index
from .stats import Comparison, compare_samples

REGRESSION = "regression"
IMPROVEMENT = "improvement"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class CompareOptions:
    """Gate thresholds; defaults documented in docs/observability.md."""

    #: relative tolerance on the workload runtime median ratio:
    #: candidate/baseline beyond ``1 + tolerance`` may regress
    tolerance: float = 0.25
    #: relative tolerance for per-kernel wall-time ratios (wider —
    #: kernel wall times are noisier than end-to-end runtimes)
    kernel_tolerance: float = 0.50
    #: significance level for the Mann–Whitney gate
    alpha: float = 0.10
    #: kernels below this median wall seconds per run are not judged
    min_kernel_s: float = 2e-3
    #: bootstrap resamples for confidence intervals
    n_boot: int = 2000
    #: confidence level for reported intervals
    confidence: float = 0.95


@dataclass
class Verdict:
    """One judged comparison (a workload metric or one kernel)."""

    scope: str        # "workload" | "kernel"
    workload: str     # workload key
    subject: str      # metric name or "phase/kernel"
    verdict: str      # regression | improvement | neutral
    comparison: Comparison

    @property
    def ratio(self) -> float:
        return self.comparison.ratio

    def describe(self) -> str:
        c = self.comparison
        lo, hi = c.ratio_ci
        return (
            f"{self.workload} {self.subject}: {c.ratio:.2f}x "
            f"(CI [{lo:.2f}, {hi:.2f}], p={c.p_value:.3f}, "
            f"median {c.baseline.median:.4g}s -> {c.candidate.median:.4g}s)"
        )

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "workload": self.workload,
            "subject": self.subject,
            "verdict": self.verdict,
            **self.comparison.to_dict(),
        }


@dataclass
class CompareReport:
    """Everything ``gsap perf compare`` renders and gates on."""

    verdicts: List[Verdict] = field(default_factory=list)
    environment_warnings: List[str] = field(default_factory=list)
    missing_workloads: List[str] = field(default_factory=list)
    new_workloads: List[str] = field(default_factory=list)
    #: per workload judged on both sides, the ``phase/kernel`` keys only
    #: the baseline has (retired or renamed) and only the candidate has;
    #: neither side is judged
    missing_kernels: Dict[str, List[str]] = field(default_factory=dict)
    new_kernels: Dict[str, List[str]] = field(default_factory=dict)
    #: advisory drift notes on the scaling curves (one value per point
    #: and field — no statistical gate, so they never fail the run)
    scaling_warnings: List[str] = field(default_factory=list)
    options: CompareOptions = field(default_factory=CompareOptions)

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == REGRESSION]

    @property
    def improvements(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == IMPROVEMENT]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> dict:
        return {
            "schema": "gsap-perf-compare/1",
            "options": {
                "tolerance": self.options.tolerance,
                "kernel_tolerance": self.options.kernel_tolerance,
                "alpha": self.options.alpha,
                "min_kernel_s": self.options.min_kernel_s,
            },
            "environment_warnings": list(self.environment_warnings),
            "missing_workloads": list(self.missing_workloads),
            "new_workloads": list(self.new_workloads),
            "missing_kernels": dict(self.missing_kernels),
            "new_kernels": dict(self.new_kernels),
            "scaling_warnings": list(self.scaling_warnings),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _judge(
    comparison: Comparison, tolerance: float, alpha: float
) -> str:
    significant = comparison.p_value <= alpha
    if comparison.ratio >= 1.0 + tolerance and significant:
        return REGRESSION
    if comparison.ratio <= 1.0 / (1.0 + tolerance) and significant:
        return IMPROVEMENT
    return NEUTRAL


def _compare_scaling(
    baseline: dict, candidate: dict, tolerance: float
) -> List[str]:
    """Advisory diff of the optional ``scaling`` curve sections.

    Each point carries one value per curve field (a median where the
    sweep repeats), not a distribution to rank-test, so drift beyond
    the tolerance is reported as a warning rather than a gating
    verdict.
    """
    base = baseline.get("scaling")
    cand = candidate.get("scaling")
    warnings: List[str] = []
    if not base or not cand:
        return warnings
    if base.get("dimension") != cand.get("dimension"):
        return [
            f"scaling dimensions differ "
            f"({base.get('dimension')!r} vs {cand.get('dimension')!r}); "
            f"curves not compared"
        ]
    base_points = {p["value"]: p for p in base.get("points", [])}
    cand_points = {p["value"]: p for p in cand.get("points", [])}
    for value in sorted(set(base_points) & set(cand_points)):
        bp, cp = base_points[value], cand_points[value]
        for key in sorted(set(bp) & set(cp) - {"value"}):
            b, c = bp.get(key), cp.get(key)
            if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
                continue
            if b <= 0:
                continue
            ratio = c / b
            # lower is worse for speedup/efficiency; higher is worse
            # for imbalance and raw times
            worse = (
                ratio < 1.0 / (1.0 + tolerance)
                if key in ("speedup", "efficiency")
                else ratio > 1.0 + tolerance
            )
            if worse:
                warnings.append(
                    f"scaling {base['dimension']}={value:g}: {key} "
                    f"{b:.4g} -> {c:.4g} ({ratio:.2f}x)"
                )
    return warnings


def _sample_pairs(
    base_wl: dict, cand_wl: dict
) -> List[Tuple[str, Sequence[float], Sequence[float]]]:
    """Workload-level metric sample pairs present on both sides."""
    pairs = []
    for metric in ("runtime_s", "sim_time_s"):
        a = (base_wl.get("samples") or {}).get(metric)
        b = (cand_wl.get("samples") or {}).get(metric)
        if a and b and (max(a) > 0 or max(b) > 0):
            pairs.append((metric, a, b))
    return pairs


def compare_records(
    baseline: dict,
    candidate: dict,
    options: Optional[CompareOptions] = None,
) -> CompareReport:
    """Diff *candidate* against *baseline* at workload + kernel level."""
    opts = options or CompareOptions()
    report = CompareReport(options=opts)
    report.environment_warnings = fingerprint_mismatches(
        baseline.get("environment"), candidate.get("environment")
    )
    base_idx = workload_index(baseline)
    cand_idx = workload_index(candidate)
    report.missing_workloads = sorted(set(base_idx) - set(cand_idx))
    report.new_workloads = sorted(set(cand_idx) - set(base_idx))
    report.scaling_warnings = _compare_scaling(
        baseline, candidate, opts.tolerance
    )

    for key in (k for k in base_idx if k in cand_idx):
        base_wl, cand_wl = base_idx[key], cand_idx[key]
        for metric, base_samples, cand_samples in _sample_pairs(
            base_wl, cand_wl
        ):
            comparison = compare_samples(
                base_samples, cand_samples,
                confidence=opts.confidence, n_boot=opts.n_boot,
            )
            report.verdicts.append(Verdict(
                scope="workload", workload=key, subject=metric,
                verdict=_judge(comparison, opts.tolerance, opts.alpha),
                comparison=comparison,
            ))

        base_kernels: Dict[str, dict] = base_wl.get("kernels") or {}
        cand_kernels: Dict[str, dict] = cand_wl.get("kernels") or {}
        missing = sorted(set(base_kernels) - set(cand_kernels))
        added = sorted(set(cand_kernels) - set(base_kernels))
        if missing:
            report.missing_kernels[key] = missing
        if added:
            report.new_kernels[key] = added
        for kname in sorted(set(base_kernels) & set(cand_kernels)):
            a = base_kernels[kname].get("wall_s") or []
            b = cand_kernels[kname].get("wall_s") or []
            if not a or not b:
                continue
            if (
                float(np.median(a)) < opts.min_kernel_s
                and float(np.median(b)) < opts.min_kernel_s
            ):
                continue
            comparison = compare_samples(
                a, b, confidence=opts.confidence, n_boot=opts.n_boot
            )
            report.verdicts.append(Verdict(
                scope="kernel", workload=key, subject=kname,
                verdict=_judge(
                    comparison, opts.kernel_tolerance, opts.alpha
                ),
                comparison=comparison,
            ))
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
_ICON = {REGRESSION: "✗", IMPROVEMENT: "✓", NEUTRAL: "·"}


def compare_markdown(report: CompareReport) -> str:
    """Human-readable comparison: verdict tables plus the gate summary."""
    lines: List[str] = ["# Perf comparison", ""]
    if report.environment_warnings:
        lines.append(
            "**Warning — cross-environment comparison** "
            "(timings may not be commensurable):"
        )
        for warning in report.environment_warnings:
            lines.append(f"- {warning}")
        lines.append("")
    if report.missing_workloads:
        lines.append(
            f"Workloads missing from candidate: "
            f"{', '.join(report.missing_workloads)}"
        )
    if report.new_workloads:
        lines.append(
            f"Workloads new in candidate (not judged): "
            f"{', '.join(report.new_workloads)}"
        )
    for key, kernels in report.missing_kernels.items():
        lines.append(
            f"Kernels missing from candidate in {key} (not judged): "
            f"{', '.join(kernels)}"
        )
    for key, kernels in report.new_kernels.items():
        lines.append(
            f"Kernels new in candidate in {key} (not judged): "
            f"{', '.join(kernels)}"
        )
    if (report.missing_workloads or report.new_workloads
            or report.missing_kernels or report.new_kernels):
        lines.append("")
    if report.scaling_warnings:
        lines.append("Scaling-curve drift (advisory — no statistical gate):")
        for warning in report.scaling_warnings:
            lines.append(f"- {warning}")
        lines.append("")

    workload_rows = [v for v in report.verdicts if v.scope == "workload"]
    if workload_rows:
        lines += [
            "## Workloads",
            "",
            "| workload | metric | ratio | 95% CI | p | verdict |",
            "|---|---|---:|---:|---:|---|",
        ]
        for v in workload_rows:
            c = v.comparison
            lo, hi = c.ratio_ci
            lines.append(
                f"| {v.workload} | {v.subject} | {c.ratio:.3f}x | "
                f"[{lo:.3f}, {hi:.3f}] | {c.p_value:.3f} | "
                f"{_ICON[v.verdict]} {v.verdict} |"
            )
        lines.append("")

    kernel_rows = [v for v in report.verdicts if v.scope == "kernel"]
    interesting = [v for v in kernel_rows if v.verdict != NEUTRAL]
    if kernel_rows:
        lines += [
            "## Kernels",
            "",
            f"{len(kernel_rows)} phase/kernel pairs judged; "
            f"{len(interesting)} moved beyond the "
            f"{report.options.kernel_tolerance:.0%} tolerance.",
            "",
        ]
    if interesting:
        lines += [
            "| workload | phase/kernel | ratio | 95% CI | p | verdict |",
            "|---|---|---:|---:|---:|---|",
        ]
        for v in sorted(
            interesting, key=lambda v: v.ratio, reverse=True
        ):
            c = v.comparison
            lo, hi = c.ratio_ci
            lines.append(
                f"| {v.workload} | {v.subject} | {c.ratio:.3f}x | "
                f"[{lo:.3f}, {hi:.3f}] | {c.p_value:.3f} | "
                f"{_ICON[v.verdict]} {v.verdict} |"
            )
        lines.append("")

    lines.append("## Verdict")
    lines.append("")
    if report.has_regressions:
        lines.append(
            f"**{len(report.regressions)} regression(s) detected:**"
        )
        for v in report.regressions:
            lines.append(f"- {v.describe()}")
    else:
        lines.append("No regressions detected.")
    if report.improvements:
        lines.append("")
        lines.append(f"{len(report.improvements)} improvement(s):")
        for v in report.improvements:
            lines.append(f"- {v.describe()}")
    return "\n".join(lines) + "\n"
