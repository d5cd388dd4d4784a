"""Tests for the block-merge phase."""

import numpy as np
import pytest

from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.update import rebuild_blockmodel
from repro.config import SBPConfig
from repro.core.block_merge import (
    _UnionFind,
    apply_merges_with_relabel,
    run_block_merge_phase,
    select_best_proposals,
)
from repro.errors import PartitionError


class TestUnionFind:
    def test_union_and_find(self):
        uf = _UnionFind(4)
        assert uf.union_into(0, 1)
        assert uf.find(0) == uf.find(1)

    def test_cycle_rejected(self):
        uf = _UnionFind(3)
        uf.union_into(0, 1)
        assert not uf.union_into(1, 0)

    def test_chain_resolution(self):
        uf = _UnionFind(4)
        uf.union_into(0, 1)
        uf.union_into(1, 2)
        labels = uf.labels()
        assert labels[0] == labels[1] == labels[2] == uf.find(2)
        assert labels[3] == 3


class TestSelectBestProposals:
    def test_picks_minimum_per_block(self):
        # 2 proposals x 3 blocks, slot layout k*B + b
        delta = np.array([5.0, 1.0, 7.0,   2.0, 9.0, 3.0])
        props = np.array([10, 11, 12,      20, 21, 22])
        best_d, best_p = select_best_proposals(delta, props, 3, 2)
        np.testing.assert_array_equal(best_d, [2.0, 1.0, 3.0])
        np.testing.assert_array_equal(best_p, [20, 11, 22])

    def test_single_proposal(self):
        delta = np.array([4.0, 2.0])
        props = np.array([1, 0])
        best_d, best_p = select_best_proposals(delta, props, 2, 1)
        np.testing.assert_array_equal(best_d, delta)
        np.testing.assert_array_equal(best_p, props)


class TestApplyMerges:
    def test_applies_cheapest_first(self):
        bmap = np.arange(4)
        best_delta = np.array([3.0, 1.0, 2.0, 9.0])
        best_prop = np.array([1, 2, 3, 0])
        new_bmap, new_b, applied, _ = apply_merges_with_relabel(
            bmap, 4, best_delta, best_prop, 1
        )
        assert applied == 1
        assert new_b == 3
        # the cheapest merge is block 1 -> 2
        assert new_bmap[1] == new_bmap[2]

    def test_zero_merges_noop(self):
        bmap = np.arange(3)
        out, b, applied, _ = apply_merges_with_relabel(
            bmap, 3, np.zeros(3), np.arange(3), 0
        )
        np.testing.assert_array_equal(out, bmap)
        assert b == 3 and applied == 0

    def test_chains_counted_correctly(self):
        """a->b and b->a are one merge, so the next-cheapest fills in."""
        bmap = np.arange(3)
        best_delta = np.array([1.0, 2.0, 3.0])
        best_prop = np.array([1, 0, 1])  # 0->1, 1->0 (cycle), 2->1
        _, new_b, applied, _ = apply_merges_with_relabel(
            bmap, 3, best_delta, best_prop, 2
        )
        assert applied == 2
        assert new_b == 1

    def test_labels_compacted(self):
        bmap = np.arange(5)
        best_delta = np.arange(5, dtype=float)
        best_prop = np.array([4, 4, 4, 4, 3])
        new_bmap, new_b, _, _ = apply_merges_with_relabel(
            bmap, 5, best_delta, best_prop, 2
        )
        assert new_bmap.max() == new_b - 1
        assert new_bmap.min() == 0

    def test_invalid_proposals_skipped(self):
        bmap = np.arange(3)
        best_delta = np.array([1.0, 2.0, 3.0])
        best_prop = np.array([-1, 2, 0])
        _, new_b, applied, _ = apply_merges_with_relabel(
            bmap, 3, best_delta, best_prop, 1
        )
        assert applied == 1  # the -1 was skipped, 1->2 applied


class TestRunBlockMergePhase:
    def test_reaches_target(self, device, small_graph, fast_config, rng):
        n = small_graph.num_vertices
        bmap = np.arange(n)
        bm = rebuild_blockmodel(device, small_graph, bmap, n)
        outcome = run_block_merge_phase(
            device, small_graph, bm, bmap, n // 2, fast_config, rng
        )
        assert outcome.num_blocks == n // 2
        assert outcome.blockmodel.num_blocks == n // 2
        assert len(outcome.bmap) == n

    def test_blockmodel_consistent_after_merge(
        self, device, small_graph, fast_config, rng
    ):
        n = small_graph.num_vertices
        bmap = np.arange(n)
        bm = rebuild_blockmodel(device, small_graph, bmap, n)
        outcome = run_block_merge_phase(
            device, small_graph, bm, bmap, 20, fast_config, rng
        )
        expected = DenseBlockmodel.from_graph(
            small_graph, outcome.bmap, outcome.num_blocks
        )
        np.testing.assert_array_equal(
            outcome.blockmodel.to_dense(), expected.matrix
        )

    def test_merge_reduces_total_mdl_search_space(self, device, tiny_graph,
                                                  fast_config, rng):
        bmap = np.arange(4)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 4)
        outcome = run_block_merge_phase(
            device, tiny_graph, bm, bmap, 2, fast_config, rng
        )
        assert outcome.num_blocks == 2

    def test_counts_proposals(self, device, tiny_graph, fast_config, rng):
        bmap = np.arange(4)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 4)
        outcome = run_block_merge_phase(
            device, tiny_graph, bm, bmap, 3, fast_config, rng
        )
        assert outcome.num_proposals_evaluated >= 4 * fast_config.num_proposals
        assert outcome.proposal_time_s > 0

    def test_bad_target_rejected(self, device, tiny_graph, fast_config, rng):
        bmap = np.arange(4)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 4)
        with pytest.raises(PartitionError):
            run_block_merge_phase(
                device, tiny_graph, bm, bmap, 0, fast_config, rng
            )

    def test_target_equal_current_noop(self, device, tiny_graph, fast_config,
                                       rng):
        bmap = np.arange(4)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 4)
        outcome = run_block_merge_phase(
            device, tiny_graph, bm, bmap, 4, fast_config, rng
        )
        assert outcome.num_blocks == 4
        np.testing.assert_array_equal(outcome.bmap, bmap)
