"""Unit tests for the observatory statistics layer.

Every comparison the perf gate makes flows through these primitives:
bootstrap confidence intervals, the Mann-Whitney rank test (exact for
small samples, tie-corrected normal approximation beyond), Cliff's
delta, and the combined :func:`compare_samples` bundle.
"""

import math

import numpy as np
import pytest

from repro.perf.stats import (
    EXACT_LIMIT,
    bootstrap_median_ci,
    bootstrap_ratio_ci,
    cliffs_delta,
    compare_samples,
    mann_whitney,
    ratio_of_medians,
    summarize,
)


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 10.0])
        assert s.n == 5
        assert s.median == 3.0
        assert s.min == 1.0
        assert s.max == 10.0
        assert s.mean == pytest.approx(4.0)
        assert s.stdev == pytest.approx(np.std([1, 2, 3, 4, 10], ddof=1))

    def test_empty_and_singleton(self):
        assert summarize([]).n == 0
        one = summarize([7.0])
        assert one.n == 1
        assert one.stdev == 0.0
        assert one.median == 7.0

    def test_to_dict_round_trips_keys(self):
        d = summarize([1.0, 2.0]).to_dict()
        assert set(d) == {"n", "mean", "median", "min", "max", "stdev"}


class TestBootstrap:
    def test_median_ci_brackets_the_median(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(10.0, 0.5, size=30)
        lo, hi = bootstrap_median_ci(samples, seed=0)
        assert lo <= float(np.median(samples)) <= hi
        assert hi - lo < 1.0  # tight at n=30, sigma=0.5

    def test_median_ci_deterministic(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        assert bootstrap_median_ci(samples) == bootstrap_median_ci(samples)

    def test_median_ci_degenerate(self):
        assert bootstrap_median_ci([]) == (0.0, 0.0)
        assert bootstrap_median_ci([4.0]) == (4.0, 4.0)

    def test_ratio_ci_brackets_true_ratio(self):
        rng = np.random.default_rng(5)
        base = rng.normal(1.0, 0.05, size=20)
        cand = rng.normal(2.0, 0.05, size=20)  # true ratio 2.0
        lo, hi = bootstrap_ratio_ci(base, cand)
        assert lo <= 2.0 <= hi
        assert lo > 1.5  # and clearly excludes "no change"

    def test_ratio_ci_small_samples_collapse_to_point(self):
        lo, hi = bootstrap_ratio_ci([2.0], [3.0])
        assert lo == hi == pytest.approx(1.5)

    def test_ratio_of_medians_guards_zero_baseline(self):
        assert ratio_of_medians([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert ratio_of_medians([], [1.0]) == 1.0
        assert ratio_of_medians([2.0, 2.0], [3.0, 3.0]) == 1.5


class TestMannWhitney:
    def test_exact_small_sample_min_p(self):
        # perfect rank separation at 3v3: p = 2 / C(6,3) = 0.1 exactly
        _, p = mann_whitney([1.0, 1.1, 1.2], [2.0, 2.1, 2.2])
        assert p == pytest.approx(0.1)

    def test_exact_symmetry(self):
        a, b = [1.0, 3.0, 5.0], [2.0, 4.0, 6.0]
        _, p_ab = mann_whitney(a, b)
        _, p_ba = mann_whitney(b, a)
        assert p_ab == pytest.approx(p_ba)

    def test_identical_samples_not_significant(self):
        _, p = mann_whitney([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p > 0.5

    def test_degenerate_inputs(self):
        assert mann_whitney([], [1.0])[1] == 1.0
        assert mann_whitney([1.0], [])[1] == 1.0
        assert mann_whitney([2.0, 2.0], [2.0, 2.0]) == (2.0, 1.0)

    def test_exact_matches_known_table_value(self):
        # 4v4, clean separation: p = 2 / C(8,4) = 2/70
        _, p = mann_whitney([1, 2, 3, 4], [5, 6, 7, 8])
        assert p == pytest.approx(2 / 70)

    def test_normal_approximation_branch(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 1.0, size=EXACT_LIMIT)
        b = rng.normal(3.0, 1.0, size=EXACT_LIMIT)
        _, p = mann_whitney(a, b)
        assert p < 0.001  # wildly separated -> tiny p
        _, p_same = mann_whitney(a, a + 0.0)
        assert p_same > 0.9

    def test_approximation_handles_ties(self):
        a = [1.0] * 10
        b = [1.0] * 9 + [2.0]
        _, p = mann_whitney(a * 2, b * 2)  # pooled > EXACT_LIMIT
        assert 0.0 < p <= 1.0 and not math.isnan(p)

    def test_one_sided_exact_halves_the_separated_tail(self):
        # 4v4, a entirely below b: one arrangement of C(8,4) is as extreme
        a, b = [1, 2, 3, 4], [5, 6, 7, 8]
        assert mann_whitney(a, b, alternative="less")[1] == pytest.approx(1 / 70)
        assert mann_whitney(a, b, alternative="greater")[1] == 1.0
        assert mann_whitney(b, a, alternative="greater")[1] == pytest.approx(1 / 70)

    def test_one_sided_normal_branch_reads_direction(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 1.0, size=EXACT_LIMIT)
        b = rng.normal(1.0, 1.0, size=EXACT_LIMIT)
        _, two = mann_whitney(a, b)
        _, less = mann_whitney(a, b, alternative="less")
        _, greater = mann_whitney(a, b, alternative="greater")
        # without the continuity correction the one-sided tails would sum
        # to exactly 1; with it each side is a shade conservative
        assert less == pytest.approx(two / 2.0)
        assert less < 0.5 < greater
        assert less + greater == pytest.approx(1.0, abs=0.02)

    def test_one_sided_degenerate_and_bad_alternative(self):
        assert mann_whitney([2.0, 2.0], [2.0, 2.0], alternative="less")[1] == 1.0
        with pytest.raises(ValueError):
            mann_whitney([1.0], [2.0], alternative="sideways")


class TestCliffsDelta:
    def test_bounds_and_sign(self):
        assert cliffs_delta([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert cliffs_delta([0.0, 1.0], [2.0, 3.0]) == -1.0
        assert cliffs_delta([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_empty_is_zero(self):
        assert cliffs_delta([], [1.0]) == 0.0


class TestCompareSamples:
    def test_bundle_is_consistent(self):
        base = [1.0, 1.05, 0.95, 1.02, 0.98]
        cand = [1.5, 1.55, 1.45, 1.52, 1.48]
        c = compare_samples(base, cand)
        assert c.ratio == pytest.approx(1.5, rel=0.05)
        lo, hi = c.ratio_ci
        assert lo <= c.ratio <= hi
        assert c.p_value <= 0.05
        assert c.delta == 1.0  # every candidate beats every baseline
        assert c.baseline.n == c.candidate.n == 5

    def test_to_dict_shape(self):
        d = compare_samples([1.0, 2.0], [1.0, 2.0]).to_dict()
        assert set(d) == {
            "ratio", "ratio_ci", "p_value", "cliffs_delta",
            "baseline", "candidate",
        }
        assert isinstance(d["ratio_ci"], list) and len(d["ratio_ci"]) == 2
