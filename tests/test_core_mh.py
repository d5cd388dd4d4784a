"""Tests for Metropolis-Hastings acceptance and Hastings correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_with_partitions
from repro.baselines.moves import vertex_neighborhood
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.delta import (
    hastings_correction_dense,
    move_delta_batch,
    move_delta_dense,
    move_delta_hastings,
)
from repro.core.mh import accept_moves
from repro.core.vertex_move import build_move_context, move_context
from repro.gpusim.device import A4000, Device


class TestAcceptMoves:
    def test_very_good_moves_always_accepted(self, device, rng):
        delta = np.full(100, -50.0)  # large MDL decrease
        h = np.ones(100)
        accepted = accept_moves(device, delta, h, beta=3.0, rng=rng)
        assert accepted.all()

    def test_very_bad_moves_always_rejected(self, device, rng):
        delta = np.full(100, 50.0)
        h = np.ones(100)
        accepted = accept_moves(device, delta, h, beta=3.0, rng=rng)
        assert not accepted.any()

    def test_neutral_moves_accepted(self, device, rng):
        """ΔS = 0 with H = 1 gives acceptance probability exactly 1."""
        delta = np.zeros(50)
        h = np.ones(50)
        accepted = accept_moves(device, delta, h, beta=3.0, rng=rng)
        assert accepted.all()

    def test_hastings_scales_acceptance(self, device):
        delta = np.zeros(4000)
        h = np.full(4000, 0.5)
        accepted = accept_moves(
            device, delta, h, beta=3.0, rng=np.random.default_rng(0)
        )
        assert 0.4 < accepted.mean() < 0.6

    def test_extreme_delta_no_overflow(self, device, rng):
        delta = np.array([-1e9, 1e9])
        h = np.ones(2)
        with np.errstate(over="raise"):
            accepted = accept_moves(device, delta, h, beta=3.0, rng=rng)
        assert accepted[0] and not accepted[1]

    def test_empty_batch(self, device, rng):
        out = accept_moves(device, np.array([]), np.array([]), 3.0, rng)
        assert len(out) == 0


class TestHastingsBatch:
    def test_matches_dense_reference(self, small_graph, device, rng):
        """Batched device Hastings == per-vertex dense computation."""
        graph = small_graph
        b = 8
        bmap = rng.integers(0, b, graph.num_vertices).astype(np.int64)
        bmap[:b] = np.arange(b)
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        movers = rng.choice(graph.num_vertices, 40, replace=False)
        proposals = rng.integers(0, b, 40).astype(np.int64)
        ctx = build_move_context(device, graph, bmap, movers, proposals)
        _, batch = move_delta_batch(device, bm, ctx)
        for i, v in enumerate(movers):
            r, s = int(bmap[v]), int(proposals[i])
            if r == s:
                continue
            nbhd = vertex_neighborhood(graph, bmap, int(v))
            expected = hastings_correction_dense(dense, r, s, nbhd)
            assert batch[i] == pytest.approx(expected, rel=1e-9), (v, r, s)

    def test_isolated_movers_get_one(self, device):
        from repro.graph.builder import build_graph

        graph = build_graph([0], [1], num_vertices=3)
        bmap = np.array([0, 1, 0])
        bm = BlockmodelCSR.from_dense(
            DenseBlockmodel.from_graph(graph, bmap, 2).matrix
        )
        ctx = build_move_context(
            device, graph, bmap, np.array([2]), np.array([1])
        )
        _, out = move_delta_batch(device, bm, ctx)
        assert out[0] == 1.0

    def test_positive(self, small_graph, device, rng):
        graph = small_graph
        bmap = rng.integers(0, 5, graph.num_vertices).astype(np.int64)
        bmap[:5] = np.arange(5)
        bm = BlockmodelCSR.from_dense(
            DenseBlockmodel.from_graph(graph, bmap, 5).matrix
        )
        movers = np.arange(graph.num_vertices)
        proposals = rng.integers(0, 5, graph.num_vertices).astype(np.int64)
        ctx = build_move_context(device, graph, bmap, movers, proposals)
        _, out = move_delta_batch(device, bm, ctx)
        assert np.all(out > 0)
        assert np.all(np.isfinite(out))


class TestHastingsHostBody:
    """The Hastings half of :func:`move_delta_hastings` on both blockmodels."""

    def test_dense_matches_dense_oracle(self, move_edge_cases):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        ctx = move_context(graph, bmap, movers, proposals)
        _, got = move_delta_hastings(dense, ctx)
        for i, v in enumerate(movers):
            r, s = int(bmap[v]), int(proposals[i])
            if r == s:
                continue
            nbhd = vertex_neighborhood(graph, bmap, int(v))
            expected = hastings_correction_dense(dense, r, s, nbhd)
            assert got[i] == pytest.approx(expected, rel=1e-9), (v, r, s)

    def test_dense_and_csr_blockmodels_give_bit_equal_ratios(
        self, device, move_edge_cases
    ):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = BlockmodelCSR.from_dense(dense.matrix)
        ctx = build_move_context(device, graph, bmap, movers, proposals)
        _, on_dense = move_delta_hastings(dense, ctx)
        assert np.array_equal(on_dense, move_delta_hastings(bm, ctx)[1])
        assert np.array_equal(on_dense, move_delta_batch(device, bm, ctx)[1])

    @pytest.mark.parametrize("kind", ["csr", "dense"])
    def test_fused_scores_match_both_dense_oracles(self, kind, move_edge_cases):
        """ΔS against Eq. 7 and H against the per-move correction, on
        every corner the shared cell lookups split on."""
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        model = dense if kind == "dense" else BlockmodelCSR.from_dense(dense.matrix)
        ctx = move_context(graph, bmap, movers, proposals)
        delta, hastings = move_delta_hastings(model, ctx)

        nbhds = [vertex_neighborhood(graph, bmap, int(v)) for v in movers]
        moving = ctx.r != ctx.s
        blocks = [set(n.k_out_blocks) | set(n.k_in_blocks) for n in nbhds]
        both_lists = [set(n.k_out_blocks) & set(n.k_in_blocks) for n in nbhds]
        # the batch covers self-loops, a block in both of a mover's
        # lists outside {r, s}, t in {r, s}, r == s and no neighbours
        assert any(n.self_weight and m for n, m in zip(nbhds, moving))
        assert any(
            m and (both - {r, s})
            for both, m, r, s in zip(both_lists, moving, ctx.r, ctx.s)
        )
        assert any(
            m and r in blk and s in blk
            for blk, m, r, s in zip(blocks, moving, ctx.r, ctx.s)
        )
        assert np.any(~moving)
        lonely = np.array([not blk for blk in blocks])
        assert np.any(lonely & moving)

        for i, v in enumerate(movers):
            r, s = int(ctx.r[i]), int(ctx.s[i])
            if r == s or lonely[i]:
                assert delta[i] == 0.0 and hastings[i] == 1.0, (v, r, s)
                continue
            assert delta[i] == pytest.approx(
                move_delta_dense(dense, r, s, nbhds[i]), rel=1e-9, abs=1e-9
            ), (v, r, s)
            assert hastings[i] == pytest.approx(
                hastings_correction_dense(dense, r, s, nbhds[i]), rel=1e-9
            ), (v, r, s)


@settings(max_examples=25, deadline=None)
@given(graphs_with_partitions(max_vertices=8, max_edges=24), st.data())
def test_hastings_batch_matches_dense_property(data, picker):
    graph, bmap, b = data
    dense = DenseBlockmodel.from_graph(graph, bmap, b)
    bm = BlockmodelCSR.from_dense(dense.matrix)
    device = Device(A4000)
    n = graph.num_vertices
    proposals = np.array(
        [picker.draw(st.integers(0, b - 1)) for _ in range(n)], dtype=np.int64
    )
    ctx = build_move_context(device, graph, bmap, np.arange(n), proposals)
    _, batch = move_delta_batch(device, bm, ctx)
    for v in range(n):
        r, s = int(bmap[v]), int(proposals[v])
        if r == s:
            continue
        nbhd = vertex_neighborhood(graph, bmap, v)
        expected = hastings_correction_dense(dense, r, s, nbhd)
        assert batch[v] == pytest.approx(expected, rel=1e-9, abs=1e-12)
