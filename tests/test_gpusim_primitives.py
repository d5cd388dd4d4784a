"""Tests for the data-parallel primitives, incl. hypothesis oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import primitives as prim
from repro.gpusim.device import A4000, Device


@pytest.fixture
def dev():
    return Device(A4000)


# ----------------------------------------------------------------------
# exclusive scan
# ----------------------------------------------------------------------
class TestExclusiveScan:
    def test_basic(self, dev):
        out = prim.exclusive_scan(dev, np.array([3, 1, 4]))
        np.testing.assert_array_equal(out, [0, 3, 4, 8])

    def test_empty(self, dev):
        out = prim.exclusive_scan(dev, np.array([], dtype=np.int64))
        np.testing.assert_array_equal(out, [0])

    def test_usable_as_csr_ptr(self, dev):
        counts = np.array([2, 0, 1])
        ptr = prim.exclusive_scan(dev, counts)
        assert ptr[-1] == counts.sum()
        np.testing.assert_array_equal(ptr[1:] - ptr[:-1], counts)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 100), max_size=50))
def test_exclusive_scan_matches_numpy(values):
    dev = Device(A4000)
    out = prim.exclusive_scan(dev, np.array(values, dtype=np.int64))
    expected = np.concatenate(([0], np.cumsum(values))) if values else [0]
    np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# gather / scatter
# ----------------------------------------------------------------------
class TestGatherScatter:
    def test_gather(self, dev):
        out = prim.gather(dev, np.array([10, 20, 30]), np.array([2, 0, 2]))
        np.testing.assert_array_equal(out, [30, 10, 30])

    def test_scatter(self, dev):
        target = np.zeros(4, dtype=np.int64)
        prim.scatter(dev, target, np.array([1, 3]), np.array([7, 9]))
        np.testing.assert_array_equal(target, [0, 7, 0, 9])


# ----------------------------------------------------------------------
# sorts
# ----------------------------------------------------------------------
class TestSortByKey:
    def test_basic(self, dev):
        keys, vals = prim.sort_by_key(
            dev, np.array([3, 1, 2]), np.array([30, 10, 20])
        )
        np.testing.assert_array_equal(keys, [1, 2, 3])
        np.testing.assert_array_equal(vals, [10, 20, 30])

    def test_stability(self, dev):
        keys, vals = prim.sort_by_key(
            dev, np.array([1, 1, 0]), np.array([100, 200, 300])
        )
        np.testing.assert_array_equal(vals, [300, 100, 200])

    def test_length_mismatch(self, dev):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            prim.sort_by_key(dev, np.array([1, 2]), np.array([1]))


class TestSegmentedSort:
    def test_sorts_within_segments_only(self, dev):
        seg = np.array([0, 0, 0, 1, 1])
        keys = np.array([3, 1, 2, 9, 0])
        vals = np.array([30, 10, 20, 90, 0])
        s, k, v = prim.segmented_sort(dev, seg, keys, vals)
        np.testing.assert_array_equal(s, seg)
        np.testing.assert_array_equal(k, [1, 2, 3, 0, 9])
        np.testing.assert_array_equal(v, [10, 20, 30, 0, 90])

    def test_empty(self, dev):
        s, k, v = prim.segmented_sort(
            dev, np.array([], dtype=int), np.array([], dtype=int),
            np.array([], dtype=int),
        )
        assert len(s) == len(k) == len(v) == 0

    def test_equal_keys_keep_input_order(self, dev):
        seg = np.array([0, 0, 0, 0, 1, 1])
        keys = np.array([2, 1, 2, 1, 7, 7])
        vals = np.array([10, 11, 12, 13, 14, 15])
        _, k, v = prim.segmented_sort(dev, seg, keys, vals)
        np.testing.assert_array_equal(k, [1, 1, 2, 2, 7, 7])
        np.testing.assert_array_equal(v, [11, 13, 10, 12, 14, 15])

    def test_rejects_non_integer_keys(self, dev):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError, match="integers"):
            prim.segmented_sort(
                dev, np.array([0, 0]), np.array([1.5, 0.5]), np.array([1, 2])
            )

    def test_rejects_composite_overflow(self, dev):
        from repro.errors import DeviceError

        # 2**40 segments times a key span of 2**30 needs 70 bits
        seg = np.array([0, 2**40], dtype=np.int64)
        keys = np.array([0, 2**30 - 1], dtype=np.int64)
        with pytest.raises(DeviceError, match="overflow"):
            prim.segmented_sort(dev, seg, keys, np.array([1, 2]))

    def test_largest_non_overflowing_composite(self, dev):
        # (seg_max + 1) * span == 2**63: the top composite is INT64_MAX
        seg = np.array([0, 0, 2**31 - 1, 2**31 - 1], dtype=np.int64)
        keys = np.array([2**32 - 1, 0, 2**32 - 1, 0], dtype=np.int64)
        s, k, v = prim.segmented_sort(dev, seg, keys, np.arange(4))
        np.testing.assert_array_equal(v, [1, 0, 3, 2])


class TestCompositeKeys:
    def test_packs_relative_to_key_minimum(self):
        comp = prim.composite_keys(np.array([0, 1, 1]), np.array([-3, -1, -3]))
        # kmin = -3, span = 3
        np.testing.assert_array_equal(comp, [0, 5, 3])

    def test_declared_range_packs_two_arrays_alike(self):
        a = prim.composite_keys(np.array([0, 2]), np.array([1, 4]), (0, 5))
        b = prim.composite_keys(np.array([2]), np.array([4]), (0, 5))
        np.testing.assert_array_equal(a, [1, 14])
        assert b[0] == a[1]

    def test_key_outside_declared_range(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError, match="outside"):
            prim.composite_keys(np.array([0]), np.array([5]), (0, 5))

    def test_rejects_non_integer_segments(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError, match="integers"):
            prim.composite_keys(np.array([0.0]), np.array([1]))

    def test_empty(self):
        assert len(prim.composite_argsort(np.array([], dtype=int),
                                          np.array([], dtype=int))) == 0


def _stable_oracle(rows):
    """Indices of *rows* sorted by (seg, key); ties keep input order."""
    return sorted(range(len(rows)), key=lambda i: (rows[i][0], rows[i][1]))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 9), st.integers(0, 99)),
        max_size=60,
    )
)
def test_segmented_sort_matches_python_oracle(rows):
    rows.sort(key=lambda r: r[0])  # group by segment first
    seg = np.array([r[0] for r in rows], dtype=np.int64)
    keys = np.array([r[1] for r in rows], dtype=np.int64)
    vals = np.array([r[2] for r in rows], dtype=np.int64)
    dev = Device(A4000)
    s, k, v = prim.segmented_sort(dev, seg, keys, vals)
    # keys 0-9 over up to 60 rows: duplicate (seg, key) pairs are common,
    # so v pins stability, not just the key order
    expected = [rows[i] for i in _stable_oracle(rows)]
    np.testing.assert_array_equal(s, [r[0] for r in expected])
    np.testing.assert_array_equal(k, [r[1] for r in expected])
    np.testing.assert_array_equal(v, [r[2] for r in expected])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 50),
            st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)),
        ),
        max_size=80,
    )
)
def test_segmented_sort_permutation_equals_lexsort(rows):
    rows.sort(key=lambda r: r[0])
    seg = np.array([r[0] for r in rows], dtype=np.int64)
    keys = np.array([r[1] for r in rows], dtype=np.int64)
    dev = Device(A4000)
    _, _, perm = prim.segmented_sort(dev, seg, keys, np.arange(len(rows)))
    np.testing.assert_array_equal(perm, np.lexsort((keys, seg)))
    np.testing.assert_array_equal(perm, _stable_oracle(rows))


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
class TestSegmentedReduceSum:
    def test_with_empty_segments(self, dev):
        out = prim.segmented_reduce_sum(
            dev, np.array([1.0, 2.0, 3.0]), np.array([0, 2, 2, 3])
        )
        np.testing.assert_array_equal(out, [3.0, 0.0, 3.0])

    def test_integer_values(self, dev):
        out = prim.segmented_reduce_sum(
            dev, np.array([1, 2, 3], dtype=np.int64), np.array([0, 1, 3])
        )
        np.testing.assert_array_equal(out, [1, 5])


class TestReduceByKey:
    def test_basic(self, dev):
        keys, sums = prim.reduce_by_key(
            dev, np.array([1, 1, 2, 2, 2]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        )
        np.testing.assert_array_equal(keys, [1, 2])
        np.testing.assert_array_equal(sums, [3.0, 12.0])

    def test_empty(self, dev):
        keys, sums = prim.reduce_by_key(
            dev, np.array([], dtype=int), np.array([], dtype=float)
        )
        assert len(keys) == 0 and len(sums) == 0

    def test_non_adjacent_duplicates_not_merged(self, dev):
        """reduce_by_key compresses runs, not global duplicates (thrust semantics)."""
        keys, sums = prim.reduce_by_key(
            dev, np.array([1, 2, 1]), np.array([1, 1, 1])
        )
        np.testing.assert_array_equal(keys, [1, 2, 1])


class TestSegmentedReduceByKey:
    def test_resets_at_segment_boundary(self, dev):
        seg = np.array([0, 0, 1, 1])
        keys = np.array([5, 5, 5, 5])
        vals = np.array([1, 2, 3, 4])
        s, k, v = prim.segmented_reduce_by_key(dev, seg, keys, vals)
        np.testing.assert_array_equal(s, [0, 1])
        np.testing.assert_array_equal(k, [5, 5])
        np.testing.assert_array_equal(v, [3, 7])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(1, 9)),
        max_size=60,
    )
)
def test_segmented_reduce_by_key_matches_dict_oracle(rows):
    rows.sort(key=lambda r: (r[0], r[1]))
    seg = np.array([r[0] for r in rows], dtype=np.int64)
    keys = np.array([r[1] for r in rows], dtype=np.int64)
    vals = np.array([r[2] for r in rows], dtype=np.int64)
    dev = Device(A4000)
    s, k, v = prim.segmented_reduce_by_key(dev, seg, keys, vals)
    oracle: dict = {}
    for a, b, c in rows:
        oracle[(a, b)] = oracle.get((a, b), 0) + c
    got = dict(zip(zip(s.tolist(), k.tolist()), v.tolist()))
    assert got == oracle


class TestBincount:
    def test_unweighted(self, dev):
        out = prim.bincount(dev, np.array([0, 2, 2]), 4)
        np.testing.assert_array_equal(out, [1, 0, 2, 0])

    def test_weighted(self, dev):
        out = prim.bincount(
            dev, np.array([1, 1]), 3, weights=np.array([2.5, 0.5])
        )
        np.testing.assert_array_equal(out, [0.0, 3.0, 0.0])


def test_all_primitives_record_kernels(dev):
    prim.exclusive_scan(dev, np.arange(4))
    prim.gather(dev, np.arange(4), np.array([0]))
    prim.sort_by_key(dev, np.arange(4), np.arange(4))
    names = {r.name for r in dev.profiler.kernel_records}
    assert {"exclusive_scan", "gather", "sort_by_key"} <= names
