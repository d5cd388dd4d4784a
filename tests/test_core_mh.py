"""Tests for Metropolis-Hastings acceptance and Hastings correction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs_with_partitions
from repro.baselines.common import hastings_correction_dense, vertex_neighborhood
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.dense import DenseBlockmodel
from repro.core.mh import accept_moves, hastings_correction_batch, hastings_ratio
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
        batch = hastings_correction_batch(device, bm, ctx)
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
        out = hastings_correction_batch(device, bm, ctx)
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
        out = hastings_correction_batch(device, bm, ctx)
        assert np.all(out > 0)
        assert np.all(np.isfinite(out))


class TestHastingsHostBody:
    """:func:`hastings_ratio` on the CPU baselines' dense blockmodel."""

    def test_dense_matches_dense_oracle(self, move_edge_cases):
        graph, bmap, b, movers, proposals = move_edge_cases
        dense = DenseBlockmodel.from_graph(graph, bmap, b)
        ctx = move_context(graph, bmap, movers, proposals)
        got = hastings_ratio(dense, ctx)
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
        on_dense = hastings_ratio(dense, ctx)
        assert np.array_equal(on_dense, hastings_ratio(bm, ctx))
        assert np.array_equal(
            on_dense, hastings_correction_batch(device, bm, ctx)
        )


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
    batch = hastings_correction_batch(device, bm, ctx)
    for v in range(n):
        r, s = int(bmap[v]), int(proposals[v])
        if r == s:
            continue
        nbhd = vertex_neighborhood(graph, bmap, v)
        expected = hastings_correction_dense(dense, r, s, nbhd)
        assert batch[v] == pytest.approx(expected, rel=1e-9, abs=1e-12)
