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
from repro.baselines.common import hastings_correction_dense
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.delta import (
    VertexNeighborhood,
    merge_delta_batch,
    merge_delta_dense,
    move_delta_batch,
    move_delta_hastings,
    merge_delta_cells,
    move_delta_dense,
)
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import data_log_posterior_dense
from repro.blockmodel import blockmodel as csr_module
from repro.core.block_merge import select_best_proposals
from repro.core.mh import accept_moves
from repro.core.vertex_move import build_move_context, move_context
from repro.errors import NumericalError
from repro.gpusim.device import A4000, Device
from repro.graph.datasets import load_dataset


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
    batch, _ = move_delta_batch(device, bm, ctx)
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
        got, _ = move_delta_batch(device, bm, ctx)

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
        got, _ = move_delta_hastings(dense, ctx)
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
        on_dense, _ = move_delta_hastings(dense, ctx)
        assert np.array_equal(on_dense, move_delta_hastings(bm, ctx)[0])
        assert np.array_equal(on_dense, move_delta_batch(device, bm, ctx)[0])

    @pytest.mark.parametrize("model", ["dense", "csr_table", "csr_search"])
    def test_fused_scores_of_a_dataset_batch_match_both_oracles(
        self, model, monkeypatch
    ):
        """ΔS and H of one batch on every blockmodel form and lookup path."""
        graph, _ = load_dataset("low_low", 300, seed=1)
        rng = np.random.default_rng(5)
        b = 12
        bmap = rng.integers(0, b, graph.num_vertices).astype(np.int64)
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        if model == "csr_search":
            monkeypatch.setattr(csr_module, "LOOKUP_TABLE_MAX_CELLS", 0)
        bm = dense if model == "dense" else BlockmodelCSR.from_dense(dense.matrix)
        if model != "dense":
            assert (bm._lookup_table() is None) == (model == "csr_search")
        movers = rng.permutation(graph.num_vertices)[:120]
        proposals = rng.integers(0, b, len(movers))
        ctx = move_context(graph, bmap, movers, proposals)
        delta, hastings = move_delta_hastings(bm, ctx)
        reference = move_delta_hastings(dense, ctx)
        assert np.array_equal(delta, reference[0])
        assert np.array_equal(hastings, reference[1])
        for i, v in enumerate(movers):
            r, s = int(ctx.r[i]), int(ctx.s[i])
            if r == s:
                assert delta[i] == 0.0 and hastings[i] == 1.0
                continue
            nbhd = neighborhood_of(graph, bmap, int(v))
            assert delta[i] == pytest.approx(
                move_delta_dense(dense, r, s, nbhd), rel=1e-9, abs=1e-9
            )
            assert hastings[i] == pytest.approx(
                hastings_correction_dense(dense, r, s, nbhd), rel=1e-9
            )

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
            delta, hastings = move_delta_batch(device, corrupt, ctx)
            accept_moves(device, delta, hastings, 3.0, rng)
        assert rng.bit_generator.state == before

    def test_corrupt_cell_raises_on_the_dense_path(self, move_edge_cases):
        graph, bmap = move_edge_cases[:2]
        corrupt = DenseBlockmodel(self._corrupt_matrix(graph, bmap))
        ctx = move_context(graph, bmap, np.array([0]), np.array([1]))
        with pytest.raises(NumericalError):
            move_delta_hastings(corrupt, ctx)


class TestTouchedCellMergeDelta:
    """The touched-cell merge delta against the dense Eqs. 4-6 oracle."""

    @staticmethod
    def _all_pairs(b):
        r, s = np.divmod(np.arange(b * b), b)
        return r, s

    @staticmethod
    def _dense_all_pairs(dense, r, s):
        return np.array([merge_delta_dense(dense, int(i), int(j))
                         for i, j in zip(r, s)])

    @staticmethod
    def _dataset_model(num_blocks, num_vertices=400):
        graph, _ = load_dataset("low_low", num_vertices, seed=0)
        rng = np.random.default_rng(num_blocks)
        bmap = rng.permutation(np.arange(graph.num_vertices) % num_blocks)
        dense = DenseBlockmodel.from_graph(graph, bmap, num_blocks)
        return dense, BlockmodelCSR.from_dense(dense.matrix)

    def test_every_pair_of_the_edge_cases_matches_dense(
        self, device, move_edge_cases
    ):
        graph, bmap, b = move_edge_cases[:3]
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        r, s = self._all_pairs(b)
        got = merge_delta_batch(device, bm, r, s)
        np.testing.assert_allclose(
            got, self._dense_all_pairs(dense, r, s), rtol=1e-9, atol=1e-9
        )

    def test_every_pair_of_a_dataset_graph_matches_dense_on_both_lookup_paths(
        self, device, monkeypatch
    ):
        dense, bm = self._dataset_model(40)
        r, s = self._all_pairs(40)
        expected = self._dense_all_pairs(dense, r, s)
        assert bm._lookup_table() is not None
        on_table = merge_delta_batch(device, bm, r, s)
        np.testing.assert_allclose(on_table, expected, rtol=1e-9, atol=1e-9)
        # the same model above the table budget answers by binary search
        monkeypatch.setattr(csr_module, "LOOKUP_TABLE_MAX_CELLS", 0)
        searched = BlockmodelCSR.from_dense(dense.matrix)
        assert searched._lookup_table() is None
        assert np.array_equal(merge_delta_batch(device, searched, r, s), on_table)

    def test_above_the_table_budget_matches_dense(self, device):
        b = 2100  # B² > LOOKUP_TABLE_MAX_CELLS: lookup's search path
        dense, bm = self._dataset_model(b, num_vertices=3000)
        assert b * b > csr_module.LOOKUP_TABLE_MAX_CELLS
        assert bm._lookup_table() is None
        rng = np.random.default_rng(1)
        for r in rng.choice(b, 6, replace=False):
            s = np.concatenate(([r], rng.choice(b, 63, replace=False)))
            got = merge_delta_batch(device, bm, np.full(len(s), r), s)
            np.testing.assert_allclose(
                got, merge_delta_dense(dense, int(r), s), rtol=1e-9, atol=1e-9
            )
            assert got[0] == 0.0

    def test_both_directions_are_bit_equal_and_self_merges_zero(self, device):
        dense, bm = self._dataset_model(40)
        r, s = self._all_pairs(40)
        forward = merge_delta_batch(device, bm, r, s)
        assert np.array_equal(forward, merge_delta_cells(bm, s, r))
        # a pair's value does not depend on where it sits in the batch
        order = np.random.default_rng(2).permutation(len(r))
        assert np.array_equal(
            merge_delta_cells(bm, r[order], s[order]), forward[order]
        )
        assert np.all(forward[r == s] == 0.0)
        assert np.all(forward[r != s] != 0.0)

    def test_first_strict_minimum_per_block_is_kept(self, device):
        dense, bm = self._dataset_model(40)
        b, k = 40, 4
        rng = np.random.default_rng(3)
        # slot k·B + b is block b's k-th proposal; repeat targets so that
        # bit-equal ties occur inside a block's proposals
        targets = rng.integers(0, b, size=(2, b))
        proposals = np.concatenate((targets, targets[::-1])).ravel()
        proposers = np.tile(np.arange(b), k)
        delta = merge_delta_batch(device, bm, proposers, proposals)
        best_d, best_p = select_best_proposals(delta, proposals, b, k)
        for block in range(b):
            slots = delta.reshape(k, b)[:, block]
            first = 0
            for j in range(1, k):
                if slots[j] < slots[first]:
                    first = j
            assert best_d[block] == slots[first]
            assert best_p[block] == proposals.reshape(k, b)[first, block]

    @staticmethod
    def _model():
        m = np.array(
            [[2, 1, 3, 0], [1, 2, 4, 1], [0, 3, 1, 2], [5, 0, 1, 1]],
            dtype=np.int64,
        )
        return m

    @staticmethod
    def _float_copy(bm):
        for name in ("out_wgt", "in_wgt", "deg_out", "deg_in"):
            setattr(bm, name, getattr(bm, name).astype(np.float64))
        return bm

    def _corrupt(self, where):
        m = self._model()
        if where in ("gathered", "looked_up", "corner"):
            # merging 0 and 1 gathers M[0,2] and M[3,0] and looks up
            # M[1,2], M[3,1] and the corner M[{0,1},{0,1}]
            cell = {"gathered": (0, 2), "looked_up": (1, 2),
                    "corner": (1, 1)}[where]
            m[cell] = -m[cell]
            return BlockmodelCSR.from_dense(m)
        bm = self._float_copy(BlockmodelCSR.from_dense(m))
        if where == "gathered_nan":
            bm.out_wgt[bm.out_ptr[0] + 2] = np.nan  # M[0,2]
        elif where == "degree":
            bm.deg_out[1] = -1
        elif where == "degree_nan":
            bm.deg_in[0] = np.inf
        return bm

    @pytest.mark.parametrize(
        "where",
        ["gathered", "gathered_nan", "looked_up", "corner", "degree",
         "degree_nan"],
    )
    def test_corrupt_count_raises(self, device, where):
        bm = self._corrupt(where)
        with pytest.raises(NumericalError):
            merge_delta_batch(device, bm, np.array([1]), np.array([0]))

    def test_uncorrupted_model_does_not_raise(self, device):
        bm = self._float_copy(BlockmodelCSR.from_dense(self._model()))
        dense = DenseBlockmodel(self._model())
        got = merge_delta_batch(device, bm, np.array([1]), np.array([0]))
        assert got[0] == pytest.approx(merge_delta_dense(dense, 1, 0), rel=1e-12)
