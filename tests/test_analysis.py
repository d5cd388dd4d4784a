"""Tests for the analysis package: quotient graphs, summaries, comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import graphs_with_partitions
from repro.analysis import (
    compare_partitions,
    comparison_markdown,
    match_blocks,
    quotient_graph,
    relabel_to_match,
    summarize_partition,
    summary_markdown,
)
from repro.blockmodel.dense import DenseBlockmodel
from repro.graph.builder import build_graph


class TestQuotientGraph:
    def test_matches_blockmodel(self, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        bg = quotient_graph(tiny_graph, bmap)
        expected = DenseBlockmodel.from_graph(tiny_graph, bmap, 2)
        dense = np.zeros((2, 2), dtype=np.int64)
        src, dst, wgt = bg.graph.edge_arrays()
        dense[src, dst] = wgt
        np.testing.assert_array_equal(dense, expected.matrix)

    def test_block_sizes(self, tiny_graph):
        bg = quotient_graph(tiny_graph, np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(bg.block_sizes, [2, 2])

    def test_intra_weight(self, tiny_graph):
        bg = quotient_graph(tiny_graph, np.array([0, 1, 0, 1]))
        assert bg.intra_weight(0) == 8  # 0->0 (3) + 0->2 (5)

    def test_empty_graph(self):
        bg = quotient_graph(build_graph([], [], num_vertices=0),
                            np.empty(0, dtype=np.int64))
        assert bg.num_blocks == 0


@settings(max_examples=30, deadline=None)
@given(graphs_with_partitions())
def test_quotient_preserves_weight(data):
    graph, bmap, b = data
    bg = quotient_graph(graph, bmap)
    assert bg.graph.total_edge_weight == graph.total_edge_weight
    assert bg.block_sizes.sum() == graph.num_vertices


class TestSummaries:
    def test_partition_summary(self, tiny_graph):
        summary = summarize_partition(tiny_graph, np.array([0, 1, 0, 1]))
        assert summary.num_blocks == 2
        assert summary.total_edge_weight == tiny_graph.total_edge_weight
        assert 0.0 <= summary.intra_fraction <= 1.0
        assert summary.mdl > 0

    def test_block_stats_consistent(self, tiny_graph):
        summary = summarize_partition(tiny_graph, np.array([0, 1, 0, 1]))
        s0 = summary.block_stats[0]
        assert s0.size == 2
        assert s0.intra_weight == 8
        # conductance in [0, 1]
        for s in summary.block_stats:
            assert 0.0 <= s.conductance <= 1.0

    def test_isolated_block_zero_conductance(self):
        graph = build_graph([0, 1, 2], [1, 0, 2], num_vertices=3)
        summary = summarize_partition(graph, np.array([0, 0, 1]))
        assert summary.block_stats[1].conductance == 0.0
        assert summary.block_stats[0].conductance == 0.0

    def test_size_distribution(self, tiny_graph):
        summary = summarize_partition(tiny_graph, np.array([0, 0, 0, 1]))
        dist = summary.size_distribution()
        assert dist["min"] == 1 and dist["max"] == 3

    def test_markdown_renders(self, tiny_graph):
        summary = summarize_partition(tiny_graph, np.array([0, 1, 0, 1]))
        text = summary_markdown(summary)
        assert "2 blocks" in text
        assert "conductance" in text


class TestMatchBlocks:
    def test_identity_match(self):
        a = np.array([0, 0, 1, 1, 2])
        matches = match_blocks(a, a)
        assert len(matches) == 3
        for m in matches:
            assert m.block_a == m.block_b
            assert m.jaccard == 1.0

    def test_relabelled_match(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        matches = {(m.block_a, m.block_b) for m in match_blocks(a, b)}
        assert matches == {(0, 1), (1, 0)}

    def test_partial_overlap(self):
        a = np.array([0, 0, 0, 1])
        b = np.array([0, 0, 1, 1])
        matches = match_blocks(a, b)
        best = max(matches, key=lambda m: m.overlap)
        assert (best.block_a, best.block_b) == (0, 0)
        assert best.overlap == 2

    def test_empty(self):
        assert match_blocks(np.array([], dtype=int), np.array([], dtype=int)) == []


class TestRelabel:
    def test_relabel_aligns(self):
        a = np.array([2, 2, 0, 0])
        b = np.array([0, 0, 1, 1])
        out = relabel_to_match(a, b)
        np.testing.assert_array_equal(out, b)

    def test_extra_blocks_get_fresh_ids(self):
        a = np.array([0, 1, 2])
        b = np.array([0, 0, 0])
        out = relabel_to_match(a, b)
        # one block matches to 0; the other two get fresh ids
        assert (out == 0).sum() == 1
        assert len(np.unique(out)) == 3
        assert out.max() > b.max()


class TestCompareReport:
    def test_identical(self):
        a = np.array([0, 0, 1, 1])
        report = compare_partitions(a, a)
        assert report.nmi == pytest.approx(1.0)
        assert report.agreement_fraction == 1.0
        assert report.num_disagreeing_vertices == 0

    def test_one_vertex_moved(self):
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 1, 1])
        report = compare_partitions(a, b)
        assert report.num_disagreeing_vertices == 1
        assert 0 < report.nmi < 1

    def test_markdown(self):
        a = np.array([0, 0, 1, 1])
        text = comparison_markdown(compare_partitions(a, a))
        assert "NMI=1.000" in text
        assert "jaccard" in text


@settings(max_examples=30, deadline=None)
@given(graphs_with_partitions(max_vertices=10))
def test_relabel_preserves_grouping(data):
    _, bmap, _ = data
    other = (bmap + 1) % (bmap.max() + 1) if bmap.max() else bmap
    out = relabel_to_match(bmap, other)
    # relabelling never splits or merges groups
    for i in range(len(bmap)):
        for j in range(len(bmap)):
            assert (bmap[i] == bmap[j]) == (out[i] == out[j])
