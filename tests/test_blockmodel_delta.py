"""Property tests for ΔMDL: batch formulations vs exact recomputation.

The single most important invariant of the library: the batched device
ΔMDL (paper Eqs. 4-7) must equal the difference of full description
lengths computed from scratch, for any graph, partition and proposal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_with_partitions
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.delta import (
    VertexNeighborhood,
    merge_delta_batch,
    merge_delta_dense,
    move_delta_batch,
    move_delta_cells,
    move_delta_dense,
    precompute_block_term_sums,
)
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import data_log_posterior_dense
from repro.core.mh import accept_moves
from repro.core.vertex_move import build_move_context, move_context
from repro.errors import NumericalError
from repro.gpusim.device import A4000, Device


def neighborhood_of(graph, bmap, v) -> VertexNeighborhood:
    onbr, ow = graph.out_neighbors(v)
    inbr, iw = graph.in_neighbors(v)
    self_w = int(ow[onbr == v].sum())
    ko, ki = onbr != v, inbr != v
    if ko.any():
        ub, inv = np.unique(bmap[onbr[ko]], return_inverse=True)
        uw = np.bincount(inv, weights=ow[ko].astype(float))
    else:
        ub = np.empty(0, dtype=np.int64)
        uw = np.empty(0)
    if ki.any():
        vb, vinv = np.unique(bmap[inbr[ki]], return_inverse=True)
        vw = np.bincount(vinv, weights=iw[ki].astype(float))
    else:
        vb = np.empty(0, dtype=np.int64)
        vw = np.empty(0)
    return VertexNeighborhood(ub, uw, vb, vw, self_w)


# ----------------------------------------------------------------------
# dense oracles vs full recomputation
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30), st.data())
def test_merge_delta_dense_equals_full_recompute(data, picker):
    graph, bmap, b = data
    if b < 2:
        return
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    r = picker.draw(st.integers(0, b - 1))
    s = picker.draw(st.integers(0, b - 1))
    if r == s:
        assert merge_delta_dense(dense, r, s) == 0.0
        return
    after = dense.copy()
    after.apply_merge(r, s)
    expected = -(data_log_posterior_dense(after) - data_log_posterior_dense(dense))
    assert merge_delta_dense(dense, r, s) == pytest.approx(expected, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30), st.data())
def test_move_delta_dense_equals_full_recompute(data, picker):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    v = picker.draw(st.integers(0, graph.num_vertices - 1))
    s = picker.draw(st.integers(0, b - 1))
    r = int(bmap[v])
    nbhd = neighborhood_of(graph, bmap, v)
    got = move_delta_dense(dense, r, s, nbhd)
    if r == s:
        assert got == 0.0
        return
    after = dense.copy()
    after.apply_move(
        r, s,
        nbhd.k_out_blocks, nbhd.k_out_weights.astype(np.int64),
        nbhd.k_in_blocks, nbhd.k_in_weights.astype(np.int64),
        nbhd.self_weight,
    )
    expected = -(data_log_posterior_dense(after) - data_log_posterior_dense(dense))
    assert got == pytest.approx(expected, abs=1e-8)


# ----------------------------------------------------------------------
# batched device versions vs dense oracles
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30))
def test_merge_delta_batch_matches_dense(data):
    graph, bmap, b = data
    if b < 2:
        return
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    bm = BlockmodelCSR.from_dense(dense.matrix)
    device = Device(A4000)
    pairs = [(r, s) for r in range(b) for s in range(b)]
    r_arr = np.array([p[0] for p in pairs])
    s_arr = np.array([p[1] for p in pairs])
    batch = merge_delta_batch(device, bm, r_arr, s_arr)
    for (r, s), got in zip(pairs, batch):
        assert got == pytest.approx(merge_delta_dense(dense, r, s), abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30), st.data())
def test_move_delta_batch_matches_dense(data, picker):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    bm = BlockmodelCSR.from_dense(dense.matrix)
    device = Device(A4000)
    n = graph.num_vertices
    movers = np.arange(n)
    proposals = np.array(
        [picker.draw(st.integers(0, b - 1)) for _ in range(n)], dtype=np.int64
    )
    ctx = build_move_context(device, graph, bmap, movers, proposals)
    batch = move_delta_batch(device, bm, ctx)
    for i, v in enumerate(movers):
        r, s = int(bmap[v]), int(proposals[i])
        expected = move_delta_dense(dense, r, s, neighborhood_of(graph, bmap, v))
        assert batch[i] == pytest.approx(expected, abs=1e-7)


# ----------------------------------------------------------------------
# targeted unit cases
# ----------------------------------------------------------------------
class TestTargetedCases:
    def setup_model(self):
        m = np.array(
            [[4, 2, 0], [1, 3, 2], [0, 5, 1]], dtype=np.int64
        )
        return DenseBlockmodel(m), BlockmodelCSR.from_dense(m)

    def test_merge_self_is_zero(self):
        dense, bm = self.setup_model()
        device = Device(A4000)
        out = merge_delta_batch(device, bm, np.array([1]), np.array([1]))
        assert out[0] == 0.0

    def test_precomputed_term_sums_reused(self):
        dense, bm = self.setup_model()
        device = Device(A4000)
        sums = precompute_block_term_sums(device, bm)
        a = merge_delta_batch(device, bm, np.array([0]), np.array([1]), sums)
        b_ = merge_delta_batch(device, bm, np.array([0]), np.array([1]))
        assert a[0] == pytest.approx(b_[0])

    def test_merge_symmetric_blocks(self):
        """Merging r into s and s into r yield the same ΔMDL (the merged
        block is the same set either way)."""
        dense, bm = self.setup_model()
        device = Device(A4000)
        out = merge_delta_batch(
            device, bm, np.array([0, 1]), np.array([1, 0])
        )
        assert out[0] == pytest.approx(out[1], abs=1e-9)

    def test_move_of_isolated_vertex_data_term_zero(self, tiny_graph):
        """A vertex with no edges changes nothing in the data term."""
        from repro.graph.builder import build_graph

        graph = build_graph([0], [1], num_vertices=3)  # vertex 2 isolated
        bmap = np.array([0, 1, 0])
        dense = DenseBlockmodel.from_graph(graph, bmap, 2)
        nbhd = neighborhood_of(graph, bmap, 2)
        assert move_delta_dense(dense, 0, 1, nbhd) == pytest.approx(0.0)

    def test_self_loop_vertex_move(self):
        """Self-loop mass must follow the vertex to its new block."""
        from repro.graph.builder import build_graph

        graph = build_graph([0, 0, 1], [0, 1, 2], [4, 1, 1], num_vertices=3)
        bmap = np.array([0, 0, 1])
        dense = DenseBlockmodel.from_graph(graph, bmap, 2)
        nbhd = neighborhood_of(graph, bmap, 0)
        assert nbhd.self_weight == 4
        got = move_delta_dense(dense, 0, 1, nbhd)
        after = dense.copy()
        after.apply_move(0, 1, nbhd.k_out_blocks,
                         nbhd.k_out_weights.astype(np.int64),
                         nbhd.k_in_blocks, nbhd.k_in_weights.astype(np.int64),
                         nbhd.self_weight)
        expected = -(
            data_log_posterior_dense(after) - data_log_posterior_dense(dense)
        )
        assert got == pytest.approx(expected, abs=1e-9)


class TestTouchedCellMoveDelta:
    """The touched-cell move delta against the dense Eq. 7 oracle."""

    def test_every_vertex_to_every_block_matches_dense(
        self, device, move_edge_cases
    ):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        ctx = build_move_context(device, graph, bmap, movers, proposals)
        got = move_delta_batch(device, bm, ctx)

        # the batch covers every edge case the touched-cell path splits on
        nbhds = [neighborhood_of(graph, bmap, v) for v in movers]
        moving = ctx.r != ctx.s
        assert np.any(ctx.r == ctx.s)
        assert any(n.self_weight and m for n, m in zip(nbhds, moving))
        assert any(
            n.d_out == 0 and n.d_in == 0 and m for n, m in zip(nbhds, moving)
        )
        both = [
            {r, s} <= set(n.k_out_blocks) | set(n.k_in_blocks)
            for n, r, s in zip(nbhds, ctx.r, ctx.s)
        ]
        assert any(both & moving)

        for i, v in enumerate(movers):
            r, s = int(bmap[v]), int(proposals[i])
            expected = move_delta_dense(dense, r, s, nbhds[i])
            assert got[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            if r == s or nbhds[i].d_out + nbhds[i].d_in == 0:
                assert got[i] == 0.0

    def test_dense_host_body_matches_dense_oracle(self, move_edge_cases):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        ctx = move_context(graph, bmap, movers, proposals)
        got = move_delta_cells(dense, ctx)
        for i, v in enumerate(movers):
            r, s = int(bmap[v]), int(proposals[i])
            expected = move_delta_dense(
                dense, r, s, neighborhood_of(graph, bmap, v)
            )
            assert got[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_dense_and_csr_blockmodels_give_bit_equal_deltas(
        self, device, move_edge_cases
    ):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        ctx = build_move_context(device, graph, bmap, movers, proposals)
        on_dense = move_delta_cells(dense, ctx)
        assert np.array_equal(on_dense, move_delta_cells(bm, ctx))
        assert np.array_equal(on_dense, move_delta_batch(device, bm, ctx))

    def test_dense_lookup_matches_csr_lookup(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        rows, cols = np.divmod(np.arange(b * b), b)
        got = dense.lookup(rows, cols)
        assert got.dtype == bm.lookup(rows, cols).dtype
        assert np.array_equal(got, bm.lookup(rows, cols))
        assert np.array_equal(got, dense.matrix.ravel())

    @staticmethod
    def _corrupt_matrix(graph, bmap):
        matrix = DenseBlockmodel.from_graph(graph, bmap, 3).matrix.copy()
        # moving vertex 0 from block 0 to block 1 removes its out-edge
        # 0 -> 5 (weight 1) from M[0, 2]; zeroed, that cell goes negative
        assert matrix[0, 2] == 3
        matrix[0, 2] = 0
        return matrix

    def test_corrupt_cell_raises_before_the_mh_draw(
        self, device, move_edge_cases
    ):
        graph, bmap = move_edge_cases[:2]
        corrupt = BlockmodelCSR.from_dense(self._corrupt_matrix(graph, bmap))
        ctx = build_move_context(
            device, graph, bmap, np.array([0]), np.array([1])
        )
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(NumericalError):
            delta = move_delta_batch(device, corrupt, ctx)
            accept_moves(device, delta, np.ones_like(delta), 3.0, rng)
        assert rng.bit_generator.state == before

    def test_corrupt_cell_raises_on_the_dense_path(self, move_edge_cases):
        graph, bmap = move_edge_cases[:2]
        corrupt = DenseBlockmodel(self._corrupt_matrix(graph, bmap))
        ctx = move_context(graph, bmap, np.array([0]), np.array([1]))
        with pytest.raises(NumericalError):
            move_delta_cells(corrupt, ctx)
