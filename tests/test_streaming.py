"""Tests for streaming graph arrival and the streaming partitioner."""

import numpy as np
import pytest

from repro.blockmodel.update import UPDATE_PHASE
from repro.core import streaming
from repro.core.streaming import StreamingGSAP, _assign_new_vertices
from repro.errors import ConfigError, PartitionError
from repro.graph.builder import build_graph
from repro.graph.datasets import load_dataset
from repro.graph.streaming import (
    cumulative_graphs,
    edge_sample_stream,
    snowball_stream,
)
from repro.config import SBPConfig
from repro.gpusim.device import A4000, Device
from repro.metrics import nmi


@pytest.fixture(scope="module")
def stream_graph():
    return load_dataset("low_low", 150, seed=5)


class TestEdgeSampleStream:
    def test_union_is_whole_graph(self, stream_graph):
        graph, _ = stream_graph
        batches = list(edge_sample_stream(graph, 4, seed=1))
        assert len(batches) == 4
        total = sum(len(b[0]) for b in batches)
        assert total == graph.num_edges

    def test_batches_disjoint(self, stream_graph):
        graph, _ = stream_graph
        seen = set()
        for src, dst, wgt in edge_sample_stream(graph, 3, seed=1):
            for s, d in zip(src, dst):
                assert (int(s), int(d)) not in seen
                seen.add((int(s), int(d)))

    def test_deterministic(self, stream_graph):
        graph, _ = stream_graph
        a = [b[0].tolist() for b in edge_sample_stream(graph, 3, seed=2)]
        b = [b[0].tolist() for b in edge_sample_stream(graph, 3, seed=2)]
        assert a == b

    def test_single_stage_is_everything(self, stream_graph):
        graph, _ = stream_graph
        (batch,) = list(edge_sample_stream(graph, 1))
        assert len(batch[0]) == graph.num_edges

    def test_invalid_stage_count(self, stream_graph):
        graph, _ = stream_graph
        with pytest.raises(ConfigError):
            list(edge_sample_stream(graph, 0))


class TestSnowballStream:
    def test_union_is_whole_graph(self, stream_graph):
        graph, _ = stream_graph
        batches = list(snowball_stream(graph, 4, seed=1))
        total = sum(len(b[0]) for b in batches)
        assert total == graph.num_edges

    def test_stages_grow_vertex_coverage(self, stream_graph):
        graph, _ = stream_graph
        covered: set = set()
        coverage = []
        for src, dst, _ in snowball_stream(graph, 4, seed=1):
            covered.update(src.tolist())
            covered.update(dst.tolist())
            coverage.append(len(covered))
        assert coverage == sorted(coverage)
        assert coverage[0] > 0

    def test_handles_isolated_vertices(self):
        graph = build_graph([0, 1], [1, 0], num_vertices=5)
        batches = list(snowball_stream(graph, 2, seed=0, num_seeds=1))
        total = sum(len(b[0]) for b in batches)
        assert total == graph.num_edges


class TestCumulativeGraphs:
    def test_growth_monotone(self, stream_graph):
        graph, _ = stream_graph
        sizes = [
            g.num_edges
            for g in cumulative_graphs(
                edge_sample_stream(graph, 3, seed=0), graph.num_vertices
            )
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == graph.num_edges

    def test_final_graph_equals_original(self, stream_graph):
        graph, _ = stream_graph
        *_, final = cumulative_graphs(
            edge_sample_stream(graph, 3, seed=0), graph.num_vertices
        )
        np.testing.assert_array_equal(final.out_adj.nbr, graph.out_adj.nbr)
        np.testing.assert_array_equal(final.out_adj.wgt, graph.out_adj.wgt)


class TestAssignNewVertices:
    def test_plurality_assignment(self):
        graph = build_graph([0, 1, 3], [2, 2, 2], [5, 1, 1], num_vertices=4)
        bmap = np.array([0, 1, -1, 1], dtype=np.int64)
        active = np.array([True, True, True, True])
        rng = np.random.default_rng(0)
        out = _assign_new_vertices(graph, bmap, active, 2, rng)
        # vertex 2's votes: block 0 weight 5 (from v0), block 1 weight 2
        assert out[2] == 0

    def test_isolated_new_vertex_random(self):
        graph = build_graph([0], [1], num_vertices=3)
        bmap = np.array([0, 1, -1], dtype=np.int64)
        active = np.array([True, True, True])
        out = _assign_new_vertices(graph, bmap, active,
                                   2, np.random.default_rng(0))
        assert 0 <= out[2] < 2


class TestStreamingGSAP:
    @pytest.fixture(scope="class")
    def run(self, stream_graph):
        graph, truth = stream_graph
        config = SBPConfig(
            max_num_nodal_itr=10,
            delta_entropy_threshold1=5e-3,
            delta_entropy_threshold2=1e-3,
            seed=3,
        )
        partitioner = StreamingGSAP(config, research_interval=2)
        results = partitioner.partition_stream(
            edge_sample_stream(graph, 4, seed=1), graph.num_vertices
        )
        return graph, truth, results

    def test_one_result_per_stage(self, run):
        _, _, results = run
        assert len(results) == 4
        assert [r.stage for r in results] == [0, 1, 2, 3]

    def test_edges_accumulate(self, run):
        graph, _, results = run
        assert results[-1].num_edges == graph.num_edges
        counts = [r.num_edges for r in results]
        assert counts == sorted(counts)

    def test_research_schedule(self, run):
        _, _, results = run
        assert [r.full_search for r in results] == [True, False, True, False]

    def test_quality_improves_with_data(self, run):
        _, truth, results = run
        first = nmi(results[0].partition, truth)
        last = nmi(results[-1].partition, truth)
        assert last >= first - 0.05  # allow tiny noise, expect improvement
        assert last > 0.7

    def test_partitions_cover_all_vertices(self, run):
        graph, _, results = run
        for r in results:
            assert len(r.partition) == graph.num_vertices
            assert r.partition.min() >= 0

    def test_stage_rebuild_charged_to_update_phase(self, stream_graph,
                                                   monkeypatch):
        graph, _ = stream_graph
        device = Device(A4000)
        phases = []
        rebuild = streaming.rebuild_blockmodel

        def spy(*args, **kwargs):
            first = device.profiler.launch_count()
            blockmodel = rebuild(*args, **kwargs)
            phases.extend(
                r.phase for r in device.profiler.kernel_records[first:]
            )
            return blockmodel

        monkeypatch.setattr(streaming, "rebuild_blockmodel", spy)
        config = SBPConfig(max_num_nodal_itr=5, seed=3)
        StreamingGSAP(config, device=device, research_interval=3).partition_stream(
            edge_sample_stream(graph, 3, seed=1), graph.num_vertices
        )
        assert phases and set(phases) == {UPDATE_PHASE}

    def test_invalid_interval(self):
        with pytest.raises(PartitionError):
            StreamingGSAP(research_interval=0)
