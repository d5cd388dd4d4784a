"""``BlockmodelCSR.lookup``: the cached ``B × B`` table and the search.

Below :data:`~repro.blockmodel.blockmodel.LOOKUP_TABLE_MAX_CELLS` a
lookup is a gather from a table built on first use; above it, a binary
search over the sorted composite keys.  These tests pin

* that both paths return equal ``WEIGHT_DTYPE`` arrays (the budget is
  patched inside the test to force each side);
* that a corrupt column id is dropped from the table instead of wrapping
  into another cell;
* the assumption the per-object cache rests on: every update path
  returns a new object that shares no memory with its predecessor and
  leaves the predecessor untouched, and a fault injected at an
  integrity site (before the first lookup) shows up in the next lookup.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultPlan, FaultSpec, IntegrityConfig, install_fault_injector
from repro.blockmodel import blockmodel as blockmodel_module
from repro.blockmodel import IncrementalBlockmodel, rebuild_blockmodel
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.core.block_merge import apply_merges_with_relabel
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device
from repro.integrity import IntegrityManager
from repro.types import WEIGHT_DTYPE

ARRAYS = (
    "out_ptr", "out_nbr", "out_wgt",
    "in_ptr", "in_nbr", "in_wgt",
    "deg_out", "deg_in",
)


@pytest.fixture
def paper_matrix():
    """The Fig. 3 blockmodel: 3 blocks."""
    return np.array([[3, 0, 5], [2, 0, 1], [0, 4, 2]], dtype=np.int64)


def _search_lookup(bm: BlockmodelCSR, rows, cols) -> np.ndarray:
    with mock.patch.object(blockmodel_module, "LOOKUP_TABLE_MAX_CELLS", 0):
        assert bm._lookup_table() is None
        return bm.lookup(rows, cols)


# ----------------------------------------------------------------------
# table path == search path
# ----------------------------------------------------------------------
@st.composite
def blockmodels_and_queries(draw):
    """A random sparse dense matrix (``B`` 0..9) plus cell queries."""
    b = draw(st.integers(0, 9))
    cells = draw(st.lists(
        st.sampled_from([0, 0, 0, 0, 1, 2, 7, 1000, 2**31 - 1]),
        min_size=b * b, max_size=b * b,
    ))
    dense = np.array(cells, dtype=np.int64).reshape(b, b)
    if b:
        pairs = draw(st.lists(
            st.tuples(st.integers(0, b - 1), st.integers(0, b - 1)),
            max_size=30,
        ))
    else:
        pairs = []
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    # every cell once (present and absent ones), then the drawn queries
    # twice over so repeated queries are covered
    all_rows, all_cols = np.divmod(np.arange(b * b, dtype=np.int64), max(b, 1))
    rows = np.concatenate((all_rows, rows, rows))
    cols = np.concatenate((all_cols, cols, cols))
    return dense, rows, cols


@settings(max_examples=80, deadline=None)
@given(blockmodels_and_queries())
def test_table_and_search_paths_agree(data):
    dense, rows, cols = data
    table_bm = BlockmodelCSR.from_dense(dense)
    search_bm = BlockmodelCSR.from_dense(dense)

    via_table = table_bm.lookup(rows, cols)
    via_search = _search_lookup(search_bm, rows, cols)

    if table_bm.num_blocks:
        assert table_bm._lookup_table() is not None
    assert via_table.dtype == WEIGHT_DTYPE
    assert via_search.dtype == WEIGHT_DTYPE
    assert np.array_equal(via_table, via_search)
    assert np.array_equal(via_table, dense[rows, cols])


def test_single_block():
    bm = BlockmodelCSR.from_dense(np.array([[4]], dtype=np.int64))
    rows = cols = np.zeros(3, dtype=np.int64)
    assert np.array_equal(bm.lookup(rows, cols), [4, 4, 4])
    assert np.array_equal(_search_lookup(bm, rows, cols), [4, 4, 4])


@pytest.mark.parametrize("b", [0, 4])
def test_empty_blockmodel(b):
    bm = BlockmodelCSR.from_dense(np.zeros((b, b), dtype=np.int64))
    rows, cols = np.divmod(np.arange(b * b, dtype=np.int64), max(b, 1))
    for got in (bm.lookup(rows, cols), _search_lookup(bm, rows, cols)):
        assert got.dtype == WEIGHT_DTYPE
        assert np.array_equal(got, np.zeros(b * b))


def test_weight_beyond_int32_keeps_the_search(paper_matrix):
    dense = paper_matrix.copy()
    dense[1, 2] = 2**31
    bm = BlockmodelCSR.from_dense(dense)
    assert bm._lookup_table() is None
    rows, cols = np.divmod(np.arange(9, dtype=np.int64), 3)
    assert np.array_equal(bm.lookup(rows, cols), dense.reshape(-1))


def test_out_of_range_queries_match_the_search(paper_matrix):
    """Keys outside ``[0, B²)`` must not wrap into the table."""
    bm = BlockmodelCSR.from_dense(paper_matrix)
    for row, col in [(0, -1), (-1, 2), (2, 3), (5, 0)]:
        rows, cols = np.array([row, 2]), np.array([col, 2])
        assert np.array_equal(
            bm.lookup(rows, cols), _search_lookup(bm, rows, cols)
        ), (row, col)


# ----------------------------------------------------------------------
# corrupt column ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "entry, bad_col",
    [
        (0, -1),  # (0, 0) would wrap to the last cell, (2, 2)
        (3, 3),   # (1, 2) would alias to the next row's (2, 0)
        (5, 7),   # (2, 2) would index past the table
    ],
)
def test_corrupt_column_is_dropped_not_wrapped(paper_matrix, entry, bad_col):
    bm = BlockmodelCSR.from_dense(paper_matrix)
    row = int(np.searchsorted(bm.out_ptr, entry, side="right")) - 1
    col = int(bm.out_nbr[entry])
    bm.out_nbr[entry] = bad_col
    expected = paper_matrix.copy()
    expected[row, col] = 0
    rows, cols = np.divmod(np.arange(9, dtype=np.int64), 3)
    assert np.array_equal(bm.lookup(rows, cols), expected.reshape(-1))


# ----------------------------------------------------------------------
# objects are never mutated after they are built
# ----------------------------------------------------------------------
def _assert_fresh(new: BlockmodelCSR, old: BlockmodelCSR, snapshot: dict) -> None:
    assert new is not old
    for a in ARRAYS:
        for b in ARRAYS:
            assert not np.shares_memory(getattr(new, a), getattr(old, b)), (a, b)
    for name in ARRAYS:
        assert np.array_equal(getattr(old, name), snapshot[name]), name


def _snapshot(bm: BlockmodelCSR) -> dict:
    return {name: getattr(bm, name).copy() for name in ARRAYS}


@pytest.fixture(scope="module")
def small_graph():
    graph, truth = load_dataset("low_low", 150, seed=5)
    return graph, truth.astype(np.int64)


def test_rebuild_shares_no_memory(small_graph):
    graph, truth = small_graph
    device = Device(A4000)
    b = int(truth.max()) + 1
    old = rebuild_blockmodel(device, graph, truth, b)
    old.lookup(np.array([0]), np.array([0]))
    snapshot = _snapshot(old)
    bmap = truth.copy()
    bmap[:10] = (bmap[:10] + 1) % b
    _assert_fresh(rebuild_blockmodel(device, graph, bmap, b), old, snapshot)


def test_apply_batch_shares_no_memory(small_graph):
    graph, truth = small_graph
    device = Device(A4000)
    b = int(truth.max()) + 1
    bmap = truth.copy()
    bm = rebuild_blockmodel(device, graph, bmap, b)
    inc = IncrementalBlockmodel(device, graph)
    inc.reset(bm)
    rng = np.random.default_rng(3)
    for _ in range(4):
        movers = rng.choice(len(bmap), size=12, replace=False).astype(np.int64)
        old_blocks = bmap[movers].copy()
        new_blocks = (old_blocks + rng.integers(1, b, size=12)) % b
        bmap[movers] = new_blocks
        bm.lookup(np.array([0]), np.array([0]))
        snapshot = _snapshot(bm)
        new = inc.apply_batch(bmap, movers, old_blocks, new_blocks)
        _assert_fresh(new, bm, snapshot)
        bm = new


def test_apply_merge_relabel_shares_no_memory(small_graph):
    graph, truth = small_graph
    device = Device(A4000)
    b = int(truth.max()) + 1
    bm = rebuild_blockmodel(device, graph, truth, b)
    inc = IncrementalBlockmodel(device, graph)
    inc.reset(bm)
    rng = np.random.default_rng(7)
    _, new_b, applied, gmap = apply_merges_with_relabel(
        truth.copy(), b, rng.normal(size=b),
        rng.integers(0, b, size=b).astype(np.int64), b // 2,
    )
    assert applied > 0
    bm.lookup(np.array([0]), np.array([0]))
    snapshot = _snapshot(bm)
    _assert_fresh(inc.apply_merge_relabel(gmap, new_b), bm, snapshot)


@pytest.mark.parametrize("bit", [4, 40])  # table path, then the search
def test_bitflip_at_integrity_site_reaches_lookup(small_graph, bit):
    graph, truth = small_graph
    device = Device(A4000)
    index = 5
    install_fault_injector(device, FaultPlan(faults=[
        FaultSpec(kind="bitflip", target="csr_out_wgt", index=index, bit=bit),
    ]))
    manager = IntegrityManager(IntegrityConfig(), device, graph)
    bm = rebuild_blockmodel(device, graph, truth, int(truth.max()) + 1)
    row = np.array([np.searchsorted(bm.out_ptr, index, side="right") - 1])
    col = bm.out_nbr[index:index + 1].copy()
    clean = int(bm.out_wgt[index])
    assert manager.site(truth, bm, "vertex_move") is bm
    assert int(bm.lookup(row, col)[0]) == clean ^ (1 << bit)
