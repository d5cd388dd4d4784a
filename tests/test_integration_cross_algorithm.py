"""Cross-algorithm integration: all partitioners solve the same problem.

Every engine in the library optimises the same MDL objective, so on an
easy graph they must land in the same quality neighbourhood — mutual
agreement is a strong end-to-end check that no engine's statistics have
drifted (a wrong ΔMDL would still descend, but to a different optimum).
"""

import numpy as np
import pytest

from repro.baselines import (
    EDiStPartitioner,
    ISBPPartitioner,
    ReferenceSBP,
    USAPPartitioner,
)
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import description_length
from repro.config import SBPConfig
from repro.core.partitioner import GSAPPartitioner
from repro.graph.datasets import load_dataset
from repro.metrics import ari, nmi

ALL_ENGINES = [
    GSAPPartitioner,
    ReferenceSBP,
    USAPPartitioner,
    ISBPPartitioner,
    EDiStPartitioner,
]


@pytest.fixture(scope="module")
def arena():
    graph, truth = load_dataset("low_low", 130, seed=9)
    config = SBPConfig(
        max_num_nodal_itr=12,
        delta_entropy_threshold1=5e-3,
        delta_entropy_threshold2=1e-3,
        seed=5,
    )
    results = {}
    for engine_cls in ALL_ENGINES:
        result = engine_cls(config).partition(graph)
        results[result.algorithm] = result
    return graph, truth, results


class TestAllEnginesAgree:
    def test_all_engines_ran(self, arena):
        _, _, results = arena
        assert len(results) == len(ALL_ENGINES)

    def test_everyone_recovers_structure(self, arena):
        _, truth, results = arena
        for name, result in results.items():
            score = nmi(result.partition, truth)
            assert score > 0.6, f"{name}: NMI {score:.3f}"

    def test_mdls_in_same_neighbourhood(self, arena):
        """No engine may land more than 10% above the best MDL found."""
        _, _, results = arena
        mdls = {name: r.mdl for name, r in results.items()}
        best = min(mdls.values())
        for name, mdl in mdls.items():
            assert mdl <= best * 1.10, f"{name}: MDL {mdl:.0f} vs best {best:.0f}"

    def test_reported_mdl_is_honest(self, arena):
        """Each engine's reported MDL equals a fresh evaluation."""
        graph, _, results = arena
        v, e = graph.num_vertices, graph.total_edge_weight
        for name, result in results.items():
            model = DenseBlockmodel.from_graph(
                graph, result.partition, result.num_blocks
            )
            fresh = description_length(model, v, e)
            assert result.mdl == pytest.approx(fresh, rel=1e-9), name

    def test_pairwise_partition_agreement(self, arena):
        """Partitions agree with each other, not only with the truth."""
        _, _, results = arena
        names = list(results)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                agreement = ari(results[a].partition, results[b].partition)
                assert agreement > 0.5, f"{a} vs {b}: ARI {agreement:.3f}"

    def test_block_counts_cluster(self, arena):
        _, truth, results = arena
        planted = int(truth.max()) + 1
        for name, result in results.items():
            assert planted / 2 <= result.num_blocks <= planted * 2, (
                f"{name}: B={result.num_blocks} vs planted {planted}"
            )


class TestCategoryRobustness:
    """GSAP across all four SBPC categories at one small size."""

    @pytest.mark.parametrize(
        "category,floor",
        [("low_low", 0.85), ("low_high", 0.5), ("high_low", 0.5),
         ("high_high", 0.25)],
    )
    def test_gsap_category_floor(self, category, floor):
        graph, truth = load_dataset(category, 150, seed=4)
        config = SBPConfig(
            max_num_nodal_itr=20,
            delta_entropy_threshold1=2e-3,
            delta_entropy_threshold2=5e-4,
            seed=6,
        )
        result = GSAPPartitioner(config).partition(graph)
        score = nmi(result.partition, truth)
        assert score > floor, f"{category}: NMI {score:.3f} < {floor}"

    def test_difficulty_ordering(self):
        """Low-Low must score at least as well as High-High (paper's
        easiest-vs-hardest gradient)."""
        config = SBPConfig(
            max_num_nodal_itr=20,
            delta_entropy_threshold1=2e-3,
            delta_entropy_threshold2=5e-4,
            seed=6,
        )
        scores = {}
        for category in ("low_low", "high_high"):
            graph, truth = load_dataset(category, 150, seed=4)
            result = GSAPPartitioner(config).partition(graph)
            scores[category] = nmi(result.partition, truth)
        assert scores["low_low"] >= scores["high_high"]
