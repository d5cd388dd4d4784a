"""Tests for the CPU baseline partitioners."""

import numpy as np
import pytest

from repro.baselines import (
    CPUSBPEngine,
    ISBPPartitioner,
    ReferenceSBP,
    USAPPartitioner,
    extend_partition,
    propose_from_blockmodel,
    sample_subgraph,
    scc_initial_partition,
    vertex_neighborhood,
)
from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.config import SBPConfig
from repro.graph.builder import build_graph
from repro.graph.datasets import load_dataset
from repro.metrics import nmi


@pytest.fixture(scope="module")
def bench_graph():
    return load_dataset("low_low", 120, seed=2)


@pytest.fixture
def quick_config():
    return SBPConfig(
        max_num_nodal_itr=10,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
        seed=3,
    )


class TestVertexNeighborhood:
    def test_tiny_graph_vertex0(self, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        nbhd = vertex_neighborhood(tiny_graph, bmap, 0)
        assert nbhd.self_weight == 3
        np.testing.assert_array_equal(nbhd.k_out_blocks, [0])
        np.testing.assert_array_equal(nbhd.k_out_weights, [5])
        np.testing.assert_array_equal(nbhd.k_in_blocks, [1])
        assert nbhd.d_out == 8 and nbhd.d_in == 5

    def test_lookup_helpers(self, tiny_graph):
        bmap = np.array([0, 1, 0, 1])
        nbhd = vertex_neighborhood(tiny_graph, bmap, 0)
        assert nbhd.k_out_to(0) == 5
        assert nbhd.k_out_to(1) == 0
        assert nbhd.k_in_from(1) == 2


class TestProposeFromBlockmodel:
    def model(self):
        return BlockmodelCSR.from_dense(
            np.array([[4, 2, 0], [1, 3, 2], [0, 5, 1]], dtype=np.int64)
        )

    def test_in_range(self, rng):
        model = self.model()
        for _ in range(50):
            s = propose_from_blockmodel(
                model, np.array([1]), np.array([3.0]), rng
            )
            assert 0 <= s < 3

    def test_exclude_respected(self, rng):
        model = self.model()
        for _ in range(100):
            s = propose_from_blockmodel(
                model, np.array([1]), np.array([3.0]), rng, exclude=2
            )
            assert s != 2

    def test_no_candidates_random(self, rng):
        model = self.model()
        out = {
            propose_from_blockmodel(
                model, np.array([], dtype=np.int64), np.array([]), rng
            )
            for _ in range(100)
        }
        assert out <= {0, 1, 2}
        assert len(out) > 1


class TestReferenceSBP:
    def test_recovers_structure(self, bench_graph, quick_config):
        graph, truth = bench_graph
        result = ReferenceSBP(quick_config).partition(graph)
        assert result.algorithm == "reference-sbp"
        assert nmi(result.partition, truth) > 0.7

    def test_empty_graph(self, quick_config):
        result = ReferenceSBP(quick_config).partition(
            build_graph([], [], num_vertices=0)
        )
        assert result.num_blocks == 0

    def test_deterministic(self, bench_graph, quick_config):
        graph, _ = bench_graph
        r1 = ReferenceSBP(quick_config).partition(graph)
        r2 = ReferenceSBP(quick_config).partition(graph)
        np.testing.assert_array_equal(r1.partition, r2.partition)


class TestSCCInitialPartition:
    def test_cycle_collapses(self):
        # one 3-cycle plus an isolated tail vertex
        graph = build_graph([0, 1, 2, 3], [1, 2, 0, 0], num_vertices=4)
        bmap = scc_initial_partition(graph, max_scc_fraction=1.0)
        assert bmap[0] == bmap[1] == bmap[2]
        assert bmap[3] != bmap[0]

    def test_giant_scc_split(self):
        # a 10-cycle is one SCC covering 100% of vertices: must be split
        n = 10
        src = list(range(n))
        dst = [(i + 1) % n for i in range(n)]
        graph = build_graph(src, dst)
        bmap = scc_initial_partition(graph, max_scc_fraction=0.3)
        assert len(np.unique(bmap)) == n  # all singletons again

    def test_labels_dense(self):
        graph = build_graph([0, 1, 2, 3], [1, 0, 3, 2], num_vertices=4)
        bmap = scc_initial_partition(graph, max_scc_fraction=1.0)
        assert bmap.min() == 0
        assert bmap.max() == len(np.unique(bmap)) - 1

    def test_usap_runs(self, bench_graph, quick_config):
        graph, truth = bench_graph
        result = USAPPartitioner(quick_config).partition(graph)
        assert result.algorithm == "uSAP"
        assert nmi(result.partition, truth) > 0.6


class TestISBP:
    def test_sample_subgraph_shape(self, bench_graph, rng):
        graph, _ = bench_graph
        sub, sampled = sample_subgraph(graph, 0.5, rng)
        assert sub.num_vertices == len(sampled) == 60
        assert sub.num_edges <= graph.num_edges
        assert np.all(np.diff(sampled) > 0)  # sorted unique

    def test_extend_partition_labels_everyone(self, bench_graph, rng):
        graph, truth = bench_graph
        sampled = np.arange(0, graph.num_vertices, 2)
        bmap = extend_partition(
            graph, sampled, truth[sampled], int(truth.max()) + 1, rng
        )
        assert bmap.min() >= 0
        np.testing.assert_array_equal(bmap[sampled], truth[sampled])

    def test_extension_of_truth_scores_high(self, bench_graph, rng):
        graph, truth = bench_graph
        sampled = np.sort(
            rng.choice(graph.num_vertices, graph.num_vertices // 2, False)
        )
        bmap = extend_partition(
            graph, sampled, truth[sampled], int(truth.max()) + 1, rng
        )
        assert nmi(bmap, truth) > 0.8

    def test_full_isbp_run(self, bench_graph, quick_config):
        graph, truth = bench_graph
        result = ISBPPartitioner(quick_config).partition(graph)
        assert result.algorithm == "I-SBP"
        assert nmi(result.partition, truth) > 0.5

    def test_small_graph_falls_back_to_plain_engine(self, quick_config):
        graph = build_graph([0, 1, 2], [1, 2, 0])
        result = ISBPPartitioner(quick_config).partition(graph)
        assert result.algorithm == "I-SBP"
        assert len(result.partition) == 3


class TestMoveBatching:
    def test_batch_sizes(self):
        assert ReferenceSBP().move_batch_size(1000) == 1
        assert USAPPartitioner().move_batch_size(1000) == 1000 // 64
        assert ISBPPartitioner().move_batch_size(1000) == 1000 // 16

    def test_engine_base_runs(self, bench_graph, quick_config):
        graph, _ = bench_graph
        result = CPUSBPEngine(quick_config).partition(graph)
        assert len(result.partition) == graph.num_vertices
        assert result.timings.vertex_move_s > 0
