"""Tests for the CSR blockmodel container."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs_with_partitions
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.dense import DenseBlockmodel
from repro.errors import GraphValidationError
from repro.graph.csr import gather_rows


@pytest.fixture
def paper_matrix():
    """The Fig. 3 blockmodel: 3 blocks."""
    return np.array(
        [
            [3, 0, 5],
            [2, 0, 1],
            [0, 4, 2],
        ],
        dtype=np.int64,
    )


class TestFromDense:
    def test_round_trip(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        np.testing.assert_array_equal(bm.to_dense(), paper_matrix)

    def test_fig3_out_csr(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        # block 0: self-weight 3 and out-neighbour 2 with weight 5 (paper text)
        np.testing.assert_array_equal(bm.out_ptr, [0, 2, 4, 6])
        np.testing.assert_array_equal(bm.out_nbr[:2], [0, 2])
        np.testing.assert_array_equal(bm.out_wgt[:2], [3, 5])

    def test_degrees(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        np.testing.assert_array_equal(bm.deg_out, [8, 3, 6])
        np.testing.assert_array_equal(bm.deg_in, [5, 4, 8])

    def test_validate(self, paper_matrix):
        BlockmodelCSR.from_dense(paper_matrix).validate()

    def test_non_square_rejected(self):
        with pytest.raises(GraphValidationError):
            BlockmodelCSR.from_dense(np.zeros((2, 3)))

    def test_empty_matrix(self):
        bm = BlockmodelCSR.from_dense(np.zeros((3, 3), dtype=np.int64))
        assert bm.num_entries == 0
        bm.validate()

    def test_totals(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        assert bm.total_weight == paper_matrix.sum()
        np.testing.assert_array_equal(
            bm.deg_total(), paper_matrix.sum(0) + paper_matrix.sum(1)
        )


class TestLookup:
    def test_hits_and_misses(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        rows = np.array([0, 0, 1, 2, 2])
        cols = np.array([0, 1, 0, 1, 0])
        np.testing.assert_array_equal(
            bm.lookup(rows, cols), [3, 0, 2, 4, 0]
        )

    def test_lookup_single(self, paper_matrix):
        """One-cell queries: a stored cell and an absent one."""
        bm = BlockmodelCSR.from_dense(paper_matrix)
        assert bm.lookup(np.array([0]), np.array([2]))[0] == 5
        assert bm.lookup(np.array([2]), np.array([0]))[0] == 0

    def test_lookup_matches_dense_everywhere(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        b = bm.num_blocks
        rows, cols = np.divmod(np.arange(b * b), b)
        np.testing.assert_array_equal(
            bm.lookup(rows, cols), paper_matrix.reshape(-1)
        )

    def test_lookup_last_key(self, paper_matrix):
        """Query beyond the final stored key must not index out of range."""
        bm = BlockmodelCSR.from_dense(paper_matrix)
        assert bm.lookup(np.array([2]), np.array([2]))[0] == 2


class TestGatherRows:
    def test_out_rows(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        seg_ptr, cols, wgts = gather_rows(
            bm.out_ptr, bm.out_nbr, bm.out_wgt, np.array([2, 0])
        )
        np.testing.assert_array_equal(seg_ptr, [0, 2, 4])
        np.testing.assert_array_equal(cols, [1, 2, 0, 2])
        np.testing.assert_array_equal(wgts, [4, 2, 3, 5])

    def test_in_rows(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        seg_ptr, srcs, wgts = gather_rows(
            bm.in_ptr, bm.in_nbr, bm.in_wgt, np.array([0])
        )
        # column 0 of the matrix: entries from rows 0 (3) and 1 (2)
        np.testing.assert_array_equal(srcs, [0, 1])
        np.testing.assert_array_equal(wgts, [3, 2])

    def test_repeated_rows(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        seg_ptr, cols, _ = gather_rows(
            bm.out_ptr, bm.out_nbr, bm.out_wgt, np.array([1, 1])
        )
        np.testing.assert_array_equal(cols[:2], cols[2:])

    def test_empty_row_batch(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        seg_ptr, cols, wgts = gather_rows(
            bm.out_ptr, bm.out_nbr, bm.out_wgt, np.array([], dtype=np.int64)
        )
        np.testing.assert_array_equal(seg_ptr, [0])
        assert len(cols) == 0


class TestValidate:
    def test_degree_cache_mismatch_detected(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        bm.deg_out = bm.deg_out + 1
        with pytest.raises(GraphValidationError):
            bm.validate()

    def test_unsorted_columns_detected(self, paper_matrix):
        bm = BlockmodelCSR.from_dense(paper_matrix)
        bm.out_nbr = bm.out_nbr[::-1].copy()
        with pytest.raises(GraphValidationError):
            bm.validate()


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions())
def test_csr_matches_dense_for_random_partitions(data):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    bm = BlockmodelCSR.from_dense(dense.matrix)
    bm.validate()
    np.testing.assert_array_equal(bm.to_dense(), dense.matrix)
    np.testing.assert_array_equal(bm.deg_out, dense.deg_out)
    np.testing.assert_array_equal(bm.deg_in, dense.deg_in)
