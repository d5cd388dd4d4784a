"""Tests for the batched vertex-move phase."""

import numpy as np
import pytest

from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import description_length
from repro.blockmodel.update import rebuild_blockmodel
from repro.core.vertex_move import (
    build_move_context,
    gather_adjacency_rows,
    move_context,
    run_vertex_move_phase,
)
from repro.gpusim.primitives import composite_keys


class TestGatherAdjacencyRows:
    def test_gathers_requested_rows(self, tiny_graph):
        seg_ptr, nbr, wgt = gather_adjacency_rows(
            tiny_graph.out_adj, np.array([1, 0])
        )
        np.testing.assert_array_equal(seg_ptr, [0, 2, 4])
        np.testing.assert_array_equal(nbr, [0, 3, 0, 2])
        np.testing.assert_array_equal(wgt, [2, 1, 3, 5])

    def test_empty_batch(self, tiny_graph):
        seg_ptr, nbr, wgt = gather_adjacency_rows(
            tiny_graph.out_adj, np.array([], dtype=np.int64)
        )
        np.testing.assert_array_equal(seg_ptr, [0])


class TestBuildMoveContext:
    def test_self_loops_split_out(self, device, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        ctx = build_move_context(
            device, tiny_graph, bmap, np.array([0]), np.array([1])
        )
        assert ctx.self_w[0] == 3  # vertex 0's self-loop weight
        # out neighbours of 0 excluding self: vertex 2 (block 0) weight 5
        np.testing.assert_array_equal(ctx.kout_blk, [0])
        np.testing.assert_array_equal(ctx.kout_w, [5])
        # in neighbours of 0 excluding self: vertex 1 (block 1) weight 2
        np.testing.assert_array_equal(ctx.kin_blk, [1])
        np.testing.assert_array_equal(ctx.kin_w, [2])

    def test_degrees_include_self(self, device, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        ctx = build_move_context(
            device, tiny_graph, bmap, np.array([0]), np.array([1])
        )
        assert ctx.d_out_v[0] == 8  # 3 (self) + 5
        assert ctx.d_in_v[0] == 5  # 3 (self) + 2

    def test_aggregation_by_block(self, device):
        """Two out-edges to same-block vertices aggregate to one entry."""
        from repro.graph.builder import build_graph

        graph = build_graph([0, 0], [1, 2], [2, 3], num_vertices=3)
        bmap = np.array([0, 1, 1])
        ctx = build_move_context(
            device, graph, bmap, np.array([0]), np.array([1])
        )
        np.testing.assert_array_equal(ctx.kout_blk, [1])
        np.testing.assert_array_equal(ctx.kout_w, [5])

    def test_k_arrays_strictly_increasing_by_mover_and_block(
        self, device, small_graph_with_truth
    ):
        """move_context pairs the two directions by merging their
        composite (mover, block) keys without sorting them again."""
        graph, truth = small_graph_with_truth
        b = int(truth.max()) + 1
        rng = np.random.default_rng(3)
        bmap = rng.integers(0, b, graph.num_vertices).astype(np.int64)
        movers = rng.permutation(graph.num_vertices)[:80]
        ctx = build_move_context(device, graph, bmap, movers, bmap[movers])
        for ptr, blk in ((ctx.kout_ptr, ctx.kout_blk), (ctx.kin_ptr, ctx.kin_blk)):
            seg = np.repeat(np.arange(len(movers)), ptr[1:] - ptr[:-1])
            keys = composite_keys(seg, blk, (0, b))
            assert len(keys) > len(movers)
            assert np.all(np.diff(keys) > 0)

    def test_cross_weights_pair_each_entry_with_the_other_direction(
        self, move_edge_cases
    ):
        graph, bmap, _, movers, proposals = move_edge_cases
        ctx = move_context(graph, bmap, movers, proposals)
        assert np.any(ctx.kin_at_out > 0) and np.any(ctx.kin_at_out == 0)
        assert np.any(ctx.kout_at_in > 0) and np.any(ctx.kout_at_in == 0)
        for i in range(ctx.num_movers):
            out = slice(ctx.kout_ptr[i], ctx.kout_ptr[i + 1])
            inn = slice(ctx.kin_ptr[i], ctx.kin_ptr[i + 1])
            k_out = dict(zip(ctx.kout_blk[out].tolist(), ctx.kout_w[out]))
            k_in = dict(zip(ctx.kin_blk[inn].tolist(), ctx.kin_w[inn]))
            assert ctx.kin_at_out[out].tolist() == [
                k_in.get(t, 0.0) for t in ctx.kout_blk[out].tolist()
            ]
            assert ctx.kout_at_in[inn].tolist() == [
                k_out.get(t, 0.0) for t in ctx.kin_blk[inn].tolist()
            ]

    def test_r_and_s_recorded(self, device, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        ctx = build_move_context(
            device, tiny_graph, bmap, np.array([2, 3]), np.array([1, 0])
        )
        np.testing.assert_array_equal(ctx.r, [0, 1])
        np.testing.assert_array_equal(ctx.s, [1, 0])
        assert ctx.num_movers == 2


class TestRunVertexMovePhase:
    def run(self, device, graph, bmap, b, config, rng, threshold=1e-2):
        bm = rebuild_blockmodel(device, graph, bmap, b)
        return run_vertex_move_phase(
            device, graph, bm, bmap, config, rng, threshold
        )

    def test_mdl_never_worsens_much(self, device, small_graph, fast_config, rng):
        """Sweeps should, net of MH noise, lower or hold the MDL."""
        n = small_graph.num_vertices
        bmap = rng.integers(0, 8, n).astype(np.int64)
        bmap[:8] = np.arange(8)
        bm = rebuild_blockmodel(device, small_graph, bmap, 8)
        start_mdl = description_length(
            bm, n, small_graph.total_edge_weight
        )
        outcome = self.run(device, small_graph, bmap.copy(), 8, fast_config, rng)
        assert outcome.mdl <= start_mdl + 1e-6

    def test_blockmodel_consistent_with_bmap(
        self, device, small_graph, fast_config, rng
    ):
        n = small_graph.num_vertices
        bmap = rng.integers(0, 5, n).astype(np.int64)
        bmap[:5] = np.arange(5)
        outcome = self.run(device, small_graph, bmap, 5, fast_config, rng)
        expected = DenseBlockmodel.from_graph(small_graph, outcome.bmap, 5)
        np.testing.assert_array_equal(
            outcome.blockmodel.to_dense(), expected.matrix
        )

    def test_respects_sweep_budget(self, device, small_graph, rng):
        from repro.config import SBPConfig

        config = SBPConfig(max_num_nodal_itr=2, seed=1)
        n = small_graph.num_vertices
        bmap = rng.integers(0, 5, n).astype(np.int64)
        bmap[:5] = np.arange(5)
        outcome = self.run(device, small_graph, bmap, 5, config, rng,
                           threshold=1e-12)
        assert outcome.num_sweeps <= 2

    def test_loose_threshold_converges_fast(self, device, small_graph, rng):
        from repro.config import SBPConfig

        config = SBPConfig(seed=1)
        n = small_graph.num_vertices
        bmap = rng.integers(0, 5, n).astype(np.int64)
        bmap[:5] = np.arange(5)
        outcome = self.run(device, small_graph, bmap, 5, config, rng,
                           threshold=0.9)
        assert outcome.converged
        assert outcome.num_sweeps <= config.delta_entropy_moving_avg_window + 2

    def test_counts_proposals(self, device, small_graph, fast_config, rng):
        n = small_graph.num_vertices
        bmap = rng.integers(0, 5, n).astype(np.int64)
        bmap[:5] = np.arange(5)
        outcome = self.run(device, small_graph, bmap, 5, fast_config, rng)
        assert outcome.num_proposals == outcome.num_sweeps * n
        assert outcome.proposal_time_s > 0

    def test_moves_improve_planted_recovery(
        self, device, small_graph_with_truth, fast_config, rng
    ):
        """Starting from a noisy truth, moves should improve NMI."""
        from repro.metrics import nmi

        graph, truth = small_graph_with_truth
        b = int(truth.max()) + 1
        noisy = truth.copy()
        n = graph.num_vertices
        flip = rng.choice(n, n // 4, replace=False)
        noisy[flip] = rng.integers(0, b, len(flip))
        noisy[:b] = np.arange(b)  # keep every block alive
        before = nmi(noisy, truth)
        outcome = self.run(device, graph, noisy.copy(), b, fast_config, rng)
        after = nmi(outcome.bmap, truth)
        assert after > before
