"""Statistics for benchmark comparisons: never a bare ratio of two runs.

Benchmark noise at reproduction scale (CI runners, laptop thermal
drift) easily reaches tens of percent, so the observatory reports every
comparison as *effect size plus confidence*:

* :func:`summarize` — per-sample-set location/scale summaries
  (median and min-of-k are the headline statistics; the mean is kept
  for reference but never gates anything);
* :func:`bootstrap_median_ci` / :func:`bootstrap_ratio_ci` —
  percentile-bootstrap confidence intervals with a fixed RNG seed so
  re-rendering a comparison is deterministic;
* :func:`mann_whitney` — a Mann–Whitney U rank test, two-sided or
  one-sided (``alternative=``).  For
  the small sample counts bench runs afford (k ≤ 8 per side) the exact
  permutation null of the rank-sum statistic is enumerated — the
  normal approximation is only used beyond that, with tie correction.

The comparator combines these: a verdict requires the median ratio to
clear the tolerance *and* the rank test to reach significance, which
keeps single-outlier flukes from flagging and makes A/A comparisons
robustly neutral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Tuple

import numpy as np

#: beyond this pooled sample count the exact rank permutation null is
#: replaced by the tie-corrected normal approximation
EXACT_LIMIT = 16


@dataclass(frozen=True)
class SampleSummary:
    """Location/scale summary of one sample set."""

    n: int
    mean: float
    median: float
    min: float
    max: float
    stdev: float

    def to_dict(self) -> dict:
        return {
            "n": self.n, "mean": self.mean, "median": self.median,
            "min": self.min, "max": self.max, "stdev": self.stdev,
        }


def summarize(samples: Sequence[float]) -> SampleSummary:
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return SampleSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SampleSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        min=float(arr.min()),
        max=float(arr.max()),
        stdev=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    )


# ----------------------------------------------------------------------
# bootstrap confidence intervals
# ----------------------------------------------------------------------
def bootstrap_median_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the median of one sample set."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        return (0.0, 0.0)
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    medians = np.median(arr[idx], axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(medians, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def bootstrap_ratio_ci(
    baseline: Sequence[float],
    candidate: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Bootstrap CI for ``median(candidate) / median(baseline)``.

    Resamples both sides independently.  Degenerate inputs (empty, or a
    zero baseline median in a resample) fall back to a point interval
    at the observed ratio.
    """
    base = np.asarray(list(baseline), dtype=np.float64)
    cand = np.asarray(list(candidate), dtype=np.float64)
    point = ratio_of_medians(base, cand)
    if base.size < 2 or cand.size < 2:
        return (point, point)
    rng = np.random.default_rng(seed)
    bi = rng.integers(0, base.size, size=(n_boot, base.size))
    ci = rng.integers(0, cand.size, size=(n_boot, cand.size))
    base_med = np.median(base[bi], axis=1)
    cand_med = np.median(cand[ci], axis=1)
    ok = base_med > 0
    if not ok.any():
        return (point, point)
    ratios = cand_med[ok] / base_med[ok]
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(ratios, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def ratio_of_medians(
    baseline: Sequence[float], candidate: Sequence[float]
) -> float:
    """``median(candidate)/median(baseline)``; 1.0 when undefined."""
    base = np.asarray(list(baseline), dtype=np.float64)
    cand = np.asarray(list(candidate), dtype=np.float64)
    if base.size == 0 or cand.size == 0:
        return 1.0
    bm = float(np.median(base))
    if bm <= 0:
        return 1.0
    return float(np.median(cand)) / bm


# ----------------------------------------------------------------------
# Mann–Whitney U
# ----------------------------------------------------------------------
def _midranks(pooled: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties assigned their midrank."""
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size, dtype=np.float64)
    sorted_vals = pooled[order]
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        midrank = 0.5 * (i + j) + 1.0
        ranks[order[i : j + 1]] = midrank
        i = j + 1
    return ranks


def mann_whitney(
    a: Sequence[float], b: Sequence[float], alternative: str = "two-sided"
) -> Tuple[float, float]:
    """Mann–Whitney U test; returns ``(U_a, p_value)``.

    ``U_a`` counts (with ½ for ties) pairs where an ``a`` sample beats
    a ``b`` sample.  *alternative* is ``"two-sided"``, ``"greater"``
    (``a`` tends to exceed ``b``) or ``"less"``.  The null distribution
    is the exact permutation of rank assignments when
    ``len(a)+len(b) <= EXACT_LIMIT``; otherwise the tie-corrected normal
    approximation with continuity correction.  Degenerate inputs (either
    side empty, or all pooled values equal) report ``p = 1.0``.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    xa = np.asarray(list(a), dtype=np.float64)
    xb = np.asarray(list(b), dtype=np.float64)
    n1, n2 = xa.size, xb.size
    if n1 == 0 or n2 == 0:
        return (0.0, 1.0)
    pooled = np.concatenate([xa, xb])
    if np.all(pooled == pooled[0]):
        return (n1 * n2 / 2.0, 1.0)
    ranks = _midranks(pooled)
    rank_sum_a = float(ranks[:n1].sum())
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0

    if n1 + n2 <= EXACT_LIMIT:
        # exact permutation null of the rank-sum under the observed ties
        observed = _oriented(u_a - mean_u, alternative)
        total = 0
        extreme = 0
        indices = range(n1 + n2)
        for combo in combinations(indices, n1):
            rs = float(ranks[list(combo)].sum())
            u = rs - n1 * (n1 + 1) / 2.0
            total += 1
            if _oriented(u - mean_u, alternative) >= observed - 1e-12:
                extreme += 1
        return (u_a, extreme / total)

    # normal approximation with tie correction
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum())
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        return (u_a, 1.0)
    z = (_oriented(u_a - mean_u, alternative) - 0.5) / math.sqrt(var_u)
    if alternative == "two-sided":
        p = math.erfc(max(0.0, z) / math.sqrt(2.0))
    else:
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return (u_a, min(1.0, p))


def _oriented(shift: float, alternative: str) -> float:
    """How far ``U_a − E[U]`` lies toward the alternative."""
    if alternative == "greater":
        return shift
    if alternative == "less":
        return -shift
    return abs(shift)


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta effect size in ``[-1, 1]`` (positive: a > b)."""
    xa = np.asarray(list(a), dtype=np.float64)
    xb = np.asarray(list(b), dtype=np.float64)
    if xa.size == 0 or xb.size == 0:
        return 0.0
    diff = xa[:, None] - xb[None, :]
    return float((np.sign(diff)).mean())


@dataclass(frozen=True)
class Comparison:
    """Full statistical comparison of candidate samples vs baseline."""

    ratio: float                   # median(candidate) / median(baseline)
    ratio_ci: Tuple[float, float]  # bootstrap CI of the ratio
    p_value: float                 # Mann–Whitney two-sided
    delta: float                   # Cliff's delta (candidate vs baseline)
    baseline: SampleSummary
    candidate: SampleSummary

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "ratio_ci": list(self.ratio_ci),
            "p_value": self.p_value,
            "cliffs_delta": self.delta,
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
        }


def compare_samples(
    baseline: Sequence[float],
    candidate: Sequence[float],
    *,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> Comparison:
    """The comparison bundle every verdict is derived from."""
    u, p = mann_whitney(candidate, baseline)
    del u
    return Comparison(
        ratio=ratio_of_medians(baseline, candidate),
        ratio_ci=bootstrap_ratio_ci(
            baseline, candidate, confidence=confidence,
            n_boot=n_boot, seed=seed,
        ),
        p_value=p,
        delta=cliffs_delta(candidate, baseline),
        baseline=summarize(baseline),
        candidate=summarize(candidate),
    )
