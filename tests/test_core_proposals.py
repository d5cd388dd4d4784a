"""Tests for stochastic proposal generation (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.blockmodel.update import rebuild_blockmodel
from repro.core.proposals import propose_block_merges, propose_vertex_moves
from repro.gpusim.device import A4000, Device
from repro.graph.csr import combined_adjacency


@pytest.fixture
def bm():
    return BlockmodelCSR.from_dense(
        np.array([[3, 0, 5], [2, 0, 1], [0, 4, 2]], dtype=np.int64)
    )


def combined_block_adjacency(bm):
    return combined_adjacency(
        (bm.out_ptr, bm.out_nbr, bm.out_wgt), (bm.in_ptr, bm.in_nbr, bm.in_wgt)
    )


class TestCombinedBlockAdjacency:
    def test_rows_are_out_then_in(self, bm):
        ptr, nbr, wgt = combined_block_adjacency(bm)
        # block 0: out = [(0,3),(2,5)]; in = [(0,3),(1,2)]
        row0 = list(zip(nbr[ptr[0]:ptr[1]], wgt[ptr[0]:ptr[1]]))
        assert row0 == [(0, 3), (2, 5), (0, 3), (1, 2)]

    def test_total_entries(self, bm):
        ptr, nbr, wgt = combined_block_adjacency(bm)
        assert len(nbr) == 2 * bm.num_entries
        assert ptr[-1] == len(nbr)

    def test_weights_total(self, bm):
        _, _, wgt = combined_block_adjacency(bm)
        assert wgt.sum() == 2 * bm.total_weight


class TestCombinedVertexAdjacency:
    def test_matches_manual_union(self, tiny_graph):
        ptr, nbr, wgt = combined_adjacency(tiny_graph.out_adj, tiny_graph.in_adj)
        for v in range(tiny_graph.num_vertices):
            onbr, ow = tiny_graph.out_neighbors(v)
            inbr, iw = tiny_graph.in_neighbors(v)
            expected = list(zip(onbr, ow)) + list(zip(inbr, iw))
            got = list(zip(nbr[ptr[v]:ptr[v+1]], wgt[ptr[v]:ptr[v+1]]))
            assert got == expected


class TestBlockMergeProposals:
    def test_shape(self, device, bm, rng):
        batch = propose_block_merges(device, bm, rng, num_proposals=10)
        assert len(batch.proposals) == bm.num_blocks * 10
        assert len(batch.proposers) == bm.num_blocks * 10

    def test_slot_layout(self, device, bm, rng):
        batch = propose_block_merges(device, bm, rng, num_proposals=4)
        expected = np.tile(np.arange(bm.num_blocks), 4)
        np.testing.assert_array_equal(batch.proposers, expected)

    def test_never_proposes_self(self, device, bm, rng):
        batch = propose_block_merges(device, bm, rng, num_proposals=50)
        assert np.all(batch.proposals != batch.proposers)

    def test_proposals_in_range(self, device, bm, rng):
        batch = propose_block_merges(device, bm, rng, num_proposals=50)
        assert batch.proposals.min() >= 0
        assert batch.proposals.max() < bm.num_blocks

    def test_deterministic_under_seed(self, device, bm):
        a = propose_block_merges(device, bm, np.random.default_rng(3), 10)
        b = propose_block_merges(device, bm, np.random.default_rng(3), 10)
        np.testing.assert_array_equal(a.proposals, b.proposals)

    def test_isolated_blocks_use_random_branch(self, device, rng):
        """Blocks without neighbours must still propose (Algorithm 1 L2-3)."""
        dense = np.zeros((4, 4), dtype=np.int64)
        dense[0, 1] = 3  # blocks 2, 3 isolated
        bm = BlockmodelCSR.from_dense(dense)
        batch = propose_block_merges(device, bm, rng, num_proposals=20)
        per_block = batch.proposals.reshape(20, 4)
        assert np.all(per_block[:, 2] != 2)
        assert np.all(per_block[:, 3] != 3)

    def test_tables_attached(self, device, bm, rng):
        batch = propose_block_merges(device, bm, rng, 5)
        assert len(batch.tables.uniform) == bm.num_blocks * 5


class TestVertexMoveProposals:
    def test_proposals_for_batch(self, device, tiny_graph, rng):
        bmap = np.array([0, 1, 0, 1])
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        verts = np.array([0, 2, 3])
        batch = propose_vertex_moves(
            device, tiny_graph, bm, bmap, verts, rng
        )
        assert len(batch.proposals) == 3
        np.testing.assert_array_equal(batch.proposers, verts)
        assert batch.proposals.min() >= 0
        assert batch.proposals.max() < 2

    def test_self_proposals_allowed_for_moves(self, device, tiny_graph, rng):
        """Unlike merges, a vertex may propose its own block (a no-op)."""
        bmap = np.array([0, 0, 0, 0])
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 1)
        batch = propose_vertex_moves(
            device, tiny_graph, bm, bmap, np.arange(4), rng
        )
        assert np.all(batch.proposals == 0)

    def test_isolated_vertex_proposes_random(self, device, rng):
        from repro.graph.builder import build_graph

        graph = build_graph([0], [1], num_vertices=3)  # vertex 2 isolated
        bmap = np.array([0, 1, 0])
        bm = rebuild_blockmodel(device, graph, bmap, 2)
        batch = propose_vertex_moves(
            device, graph, bm, bmap, np.array([2] * 50), rng
        )
        assert set(np.unique(batch.proposals)) <= {0, 1}

    def test_adjacency_cache_reused(self, device, tiny_graph, rng):
        bmap = np.array([0, 1, 0, 1])
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        adj = combined_adjacency(tiny_graph.out_adj, tiny_graph.in_adj)
        a = propose_vertex_moves(
            device, tiny_graph, bm, bmap, np.arange(4),
            np.random.default_rng(1), vertex_adjacency=adj,
        )
        b = propose_vertex_moves(
            device, tiny_graph, bm, bmap, np.arange(4),
            np.random.default_rng(1),
        )
        np.testing.assert_array_equal(a.proposals, b.proposals)
