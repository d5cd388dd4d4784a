"""Integration tests for the full GSAP partitioner."""

import numpy as np
import pytest

from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import description_length
from repro.blockmodel.update import UPDATE_PHASE
from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner, partition_graph
from repro.graph.builder import build_graph
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device
from repro.metrics import nmi


@pytest.fixture(scope="module")
def lowlow_result():
    """One full GSAP run shared by the assertions below (expensive)."""
    graph, truth = load_dataset("low_low", 200, seed=0)
    config = SBPConfig(
        max_num_nodal_itr=30,
        delta_entropy_threshold1=2e-3,
        delta_entropy_threshold2=5e-4,
        seed=4,
    )
    device = Device(A4000)
    result = GSAPPartitioner(config, device=device).partition(graph)
    return graph, truth, result, device


class TestFullRun:
    def test_recovers_planted_structure(self, lowlow_result):
        graph, truth, result, _ = lowlow_result
        assert nmi(result.partition, truth) > 0.85

    def test_block_count_near_truth(self, lowlow_result):
        _, truth, result, _ = lowlow_result
        planted = int(truth.max()) + 1
        assert planted / 2 <= result.num_blocks <= planted * 2

    def test_partition_is_dense_labelled(self, lowlow_result):
        _, _, result, _ = lowlow_result
        assert result.partition.min() == 0
        assert result.partition.max() == result.num_blocks - 1
        used = np.unique(result.partition)
        assert len(used) == result.num_blocks

    def test_mdl_matches_partition(self, lowlow_result):
        """The reported MDL must equal a fresh evaluation of the partition."""
        graph, _, result, _ = lowlow_result
        model = DenseBlockmodel.from_graph(
            graph, result.partition, result.num_blocks
        )
        fresh = description_length(
            model, graph.num_vertices, graph.total_edge_weight
        )
        assert result.mdl == pytest.approx(fresh, rel=1e-9)

    def test_mdl_beats_trivial_partitions(self, lowlow_result):
        graph, _, result, _ = lowlow_result
        v, e = graph.num_vertices, graph.total_edge_weight
        one_block = DenseBlockmodel.from_graph(
            graph, np.zeros(v, dtype=np.int64), 1
        )
        singletons = DenseBlockmodel.from_graph(graph, np.arange(v), v)
        assert result.mdl < description_length(one_block, v, e)
        assert result.mdl < description_length(singletons, v, e)

    def test_history_starts_at_singletons(self, lowlow_result):
        graph, _, result, _ = lowlow_result
        assert result.history[0][0] == graph.num_vertices

    def test_history_contains_best(self, lowlow_result):
        _, _, result, _ = lowlow_result
        assert (result.num_blocks, result.mdl) in [
            (b, m) for b, m in result.history
        ]

    def test_timings_populated(self, lowlow_result):
        _, _, result, _ = lowlow_result
        assert result.timings.block_merge_s > 0
        assert result.timings.vertex_move_s > 0
        assert result.timings.total_s <= result.total_time_s

    def test_vertex_move_dominates(self, lowlow_result):
        """The paper's headline profile: vertex-move is the bottleneck."""
        _, _, result, _ = lowlow_result
        shares = result.timings.shares()
        assert shares["vertex_move"] > 0.5

    def test_sim_time_recorded(self, lowlow_result):
        _, _, result, device = lowlow_result
        assert result.sim_time_s > 0
        assert result.sim_time_s <= device.sim_time_s

    def test_rebuilds_charged_to_update_phase(self, lowlow_result):
        """Algorithm 2's plateau-start and initial rebuilds run under the
        update label; merge scoring itself launches no sort."""
        *_, device = lowlow_result
        labelled = {(r.phase, r.name) for r in device.profiler.kernel_records}
        assert ("block_merge", "segmented_sort") not in labelled
        assert (UPDATE_PHASE, "segmented_sort") in labelled

    def test_proposal_stats(self, lowlow_result):
        _, _, result, _ = lowlow_result
        stats = result.proposal_stats
        assert stats.merge_proposals > 0
        assert stats.move_proposals > 0
        assert stats.merge_avg_s() > 0
        assert stats.move_avg_s() > 0

    def test_converged(self, lowlow_result):
        _, _, result, _ = lowlow_result
        assert result.converged


class TestDeterminism:
    def test_same_seed_same_partition(self):
        graph, _ = load_dataset("low_low", 120, seed=1)
        config = SBPConfig(max_num_nodal_itr=10,
                           delta_entropy_threshold1=5e-3,
                           delta_entropy_threshold2=1e-3, seed=9)
        r1 = GSAPPartitioner(config, device=Device(A4000)).partition(graph)
        r2 = GSAPPartitioner(config, device=Device(A4000)).partition(graph)
        np.testing.assert_array_equal(r1.partition, r2.partition)
        assert r1.mdl == r2.mdl

    def test_different_seeds_may_differ(self):
        graph, _ = load_dataset("low_low", 120, seed=1)
        base = dict(max_num_nodal_itr=10, delta_entropy_threshold1=5e-3,
                    delta_entropy_threshold2=1e-3)
        r1 = GSAPPartitioner(SBPConfig(seed=1, **base)).partition(graph)
        r2 = GSAPPartitioner(SBPConfig(seed=2, **base)).partition(graph)
        # MDLs are close but the trajectories are genuinely stochastic
        assert r1.history != r2.history


class TestEdgeCases:
    def test_empty_graph(self):
        graph = build_graph([], [], num_vertices=0)
        result = GSAPPartitioner().partition(graph)
        assert result.num_blocks == 0
        assert len(result.partition) == 0

    def test_tiny_graph(self, fast_config):
        graph = build_graph([0, 1, 2], [1, 2, 0])
        result = GSAPPartitioner(fast_config).partition(graph)
        assert len(result.partition) == 3
        assert 1 <= result.num_blocks <= 3

    def test_graph_with_isolated_vertices(self, fast_config):
        graph = build_graph([0, 1], [1, 0], num_vertices=6)
        result = GSAPPartitioner(fast_config).partition(graph)
        assert len(result.partition) == 6

    def test_two_cliques(self, fast_config):
        """Two disconnected 6-cliques must map to exactly 2 blocks."""
        src, dst = [], []
        for base in (0, 6):
            for i in range(6):
                for j in range(6):
                    if i != j:
                        src.append(base + i)
                        dst.append(base + j)
        graph = build_graph(src, dst)
        result = GSAPPartitioner(fast_config).partition(graph)
        assert result.num_blocks == 2
        left = set(result.partition[:6].tolist())
        right = set(result.partition[6:].tolist())
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_partition_graph_helper(self, fast_config):
        graph = build_graph([0, 1, 2], [1, 2, 0])
        result = partition_graph(graph, fast_config)
        assert result.algorithm == "GSAP"

    def test_plateau_budget_raises(self, fast_config):
        from repro.errors import ConvergenceError

        graph, _ = load_dataset("low_low", 120, seed=1)
        with pytest.raises(ConvergenceError):
            GSAPPartitioner(fast_config, max_plateaus=2).partition(graph)

    def test_plateau_budget_best_effort(self, fast_config):
        graph, _ = load_dataset("low_low", 120, seed=1)
        config = fast_config.replace(
            resilience=fast_config.resilience.replace(best_effort=True)
        )
        result = GSAPPartitioner(config, max_plateaus=2).partition(graph)
        assert not result.converged
        assert len(result.partition) == graph.num_vertices
