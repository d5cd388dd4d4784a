"""Incremental blockmodel maintenance (sparse deltas vs Algorithm 2).

The maintainer's contract is byte-identity: after any sequence of
accepted batches or merge relabellings, every array of the maintained
:class:`BlockmodelCSR` must equal what a from-scratch
:func:`rebuild_blockmodel` would produce — same values, same dtypes —
and therefore the same MDL bit-for-bit.  These tests drive randomized
move sweeps across all four generator categories (including a batch
that moves every vertex), the desync check, the private sorted-key
mirror, the merge-phase relabel path, and end-to-end partitioner runs
whose every accepted batch is checked against a rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockmodel import (
    BlockmodelCSR,
    IncrementalBlockmodel,
    description_length,
    rebuild_blockmodel,
)
from repro.config import ObservabilityConfig, SBPConfig
from repro.core.block_merge import _UnionFind, apply_merges_with_relabel
from repro.core.partitioner import GSAPPartitioner
from repro.errors import PartitionError
from repro.graph.datasets import load_dataset
from repro.gpusim.device import A4000, Device
from repro.obs import Observability

CATEGORIES = ("low_low", "low_high", "high_low", "high_high")

BASE_KW = dict(
    max_num_nodal_itr=15,
    delta_entropy_threshold1=5e-3,
    delta_entropy_threshold2=1e-3,
    seed=9,
)


def _assert_models_identical(a: BlockmodelCSR, b: BlockmodelCSR) -> None:
    assert a.num_blocks == b.num_blocks
    for name in (
        "out_ptr", "out_nbr", "out_wgt",
        "in_ptr", "in_nbr", "in_wgt",
        "deg_out", "deg_in",
    ):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


def _random_batch(rng, bmap, num_blocks, batch_size):
    """A batch of distinct movers with genuinely changed blocks."""
    movers = rng.choice(len(bmap), size=batch_size, replace=False)
    old = bmap[movers].copy()
    new = (old + rng.integers(1, num_blocks, size=batch_size)) % num_blocks
    return movers.astype(np.int64), old, new.astype(old.dtype)


class TestRandomizedSweep:
    """Per-batch byte-identity across every generator category."""

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_batches_match_rebuild_exactly(self, category):
        graph, truth = load_dataset(category, 200, seed=3)
        device = Device(A4000)
        rng = np.random.default_rng(17)
        num_blocks = int(truth.max()) + 1
        bmap = truth.copy()
        bm = rebuild_blockmodel(device, graph, bmap, num_blocks)
        inc = IncrementalBlockmodel(device, graph)
        inc.reset(bm)
        # the last batch moves every vertex, so it touches every block
        for size in [24] * 11 + [graph.num_vertices]:
            movers, old, new = _random_batch(rng, bmap, num_blocks, size)
            bmap[movers] = new
            bm = inc.apply_batch(bmap, movers, old, new)
            reference = rebuild_blockmodel(device, graph, bmap, num_blocks)
            _assert_models_identical(bm, reference)
            assert description_length(
                bm, graph.num_vertices, graph.total_edge_weight
            ) == description_length(
                reference, graph.num_vertices, graph.total_edge_weight
            )
        assert inc.incremental_updates == 12

    def test_merge_relabel_matches_rebuild(self):
        graph, truth = load_dataset("high_low", 200, seed=3)
        device = Device(A4000)
        rng = np.random.default_rng(11)
        num_blocks = int(truth.max()) + 1
        bmap = truth.copy()
        bm = rebuild_blockmodel(device, graph, bmap, num_blocks)
        inc = IncrementalBlockmodel(device, graph)
        inc.reset(bm)
        best_delta = rng.normal(size=num_blocks)
        best_proposal = rng.integers(0, num_blocks, size=num_blocks).astype(
            np.int64
        )
        bmap, new_b, applied, gmap = apply_merges_with_relabel(
            bmap, num_blocks, best_delta, best_proposal, num_blocks // 3
        )
        assert applied > 0
        collapsed = inc.apply_merge_relabel(gmap, new_b)
        reference = rebuild_blockmodel(device, graph, bmap, new_b)
        _assert_models_identical(collapsed, reference)


class TestMoverNeighbours:
    """Movers whose neighbours also move must be counted exactly once."""

    def test_clique_of_movers(self, tiny_graph):
        device = Device(A4000)
        bmap = np.array([0, 1, 0, 1], dtype=np.int64)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        inc = IncrementalBlockmodel(device, tiny_graph)
        inc.reset(bm)
        # every vertex moves at once (self-loop + mutual edges included)
        movers = np.array([0, 1, 2, 3], dtype=np.int64)
        old = bmap.copy()
        new = np.array([1, 0, 1, 0], dtype=np.int64)
        bmap[movers] = new
        bm = inc.apply_batch(bmap, movers, old, new)
        _assert_models_identical(
            bm, rebuild_blockmodel(device, tiny_graph, bmap, 2)
        )


class TestGuards:
    def test_apply_before_reset_raises(self, tiny_graph):
        inc = IncrementalBlockmodel(Device(A4000), tiny_graph)
        with pytest.raises(PartitionError):
            inc.apply_batch(
                np.zeros(4, dtype=np.int64),
                np.array([0]), np.array([0]), np.array([1]),
            )

    def test_misstated_old_blocks_raise_desync(self, tiny_graph):
        """Deltas taken from a block the movers were never in must raise."""
        device = Device(A4000)
        # block 1 is empty, so every cell the batch takes from it is absent
        bmap = np.zeros(4, dtype=np.int64)
        bm = rebuild_blockmodel(device, tiny_graph, bmap, 2)
        inc = IncrementalBlockmodel(device, tiny_graph)
        inc.reset(bm)
        movers = np.array([0, 2], dtype=np.int64)
        with pytest.raises(PartitionError, match="desync"):
            inc.apply_batch(
                bmap, movers, np.array([1, 1]), np.array([0, 0]),
            )
        # the failed batch left the mirror as it was
        bmap[movers] = 1
        bm = inc.apply_batch(bmap, movers, np.array([0, 0]), np.array([1, 1]))
        _assert_models_identical(
            bm, rebuild_blockmodel(device, tiny_graph, bmap, 2)
        )

    def test_fault_in_returned_blockmodel_stays_out(self):
        """A write into a returned blockmodel's weights or degrees never
        reaches the next batch."""
        graph, truth = load_dataset("low_low", 200, seed=3)
        device = Device(A4000)
        rng = np.random.default_rng(5)
        num_blocks = int(truth.max()) + 1
        bmap = truth.copy()
        inc = IncrementalBlockmodel(device, graph)
        inc.reset(rebuild_blockmodel(device, graph, bmap, num_blocks))
        for _ in range(3):
            movers, old, new = _random_batch(rng, bmap, num_blocks, 16)
            bmap[movers] = new
            bm = inc.apply_batch(bmap, movers, old, new)
            bm.out_wgt[0] += 1000
            bm.in_wgt[0] ^= 1 << 40
            bm.deg_out[0] += 7
            bm.deg_in[0] += 7
        movers, old, new = _random_batch(rng, bmap, num_blocks, 16)
        bmap[movers] = new
        _assert_models_identical(
            inc.apply_batch(bmap, movers, old, new),
            rebuild_blockmodel(device, graph, bmap, num_blocks),
        )


class TestUnionFindLabels:
    """Vectorized pointer-jumping must match sequential find()."""

    def test_chained_merges_pin_labels(self):
        uf = _UnionFind(10)
        # a deliberate chain: 0→1→2→…→9 built pairwise
        for i in range(9):
            assert uf.union_into(i, i + 1)
        labels = uf.labels()
        assert np.array_equal(labels, np.full(10, uf.find(0)))

    def test_random_merge_forest(self):
        rng = np.random.default_rng(123)
        uf = _UnionFind(64)
        for _ in range(80):
            a, b = rng.integers(0, 64, size=2)
            uf.union_into(int(a), int(b))
        labels = uf.labels()
        expected = np.array([uf.find(i) for i in range(64)])
        assert np.array_equal(labels, expected)
        # labels are roots: applying them again changes nothing
        assert np.array_equal(labels[labels], labels)


class TestEndToEndIdentity:
    """Every accepted batch of a partitioner run equals a rebuild."""

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_partitioner_identity(self, category, monkeypatch):
        graph, _ = load_dataset(category, 200, seed=1)
        config = SBPConfig(**BASE_KW)
        plain = GSAPPartitioner(config, device=Device(A4000)).partition(graph)

        apply_batch = IncrementalBlockmodel.apply_batch
        checked = []

        def checked_apply_batch(self, bmap, *args, **kwargs):
            bm = apply_batch(self, bmap, *args, **kwargs)
            _assert_models_identical(
                bm, rebuild_blockmodel(Device(A4000), graph, bmap, bm.num_blocks)
            )
            checked.append(bm.num_blocks)
            return bm

        monkeypatch.setattr(IncrementalBlockmodel, "apply_batch", checked_apply_batch)
        result = GSAPPartitioner(config, device=Device(A4000)).partition(graph)
        assert checked, "no accepted batch reached the maintainer"
        assert np.array_equal(result.partition, plain.partition)
        assert result.num_blocks == plain.num_blocks
        assert result.mdl == plain.mdl
        assert result.history == plain.history

    def test_incremental_update_counter(self):
        graph, _ = load_dataset("low_low", 200, seed=1)
        config = SBPConfig(**BASE_KW).replace(
            observability=ObservabilityConfig(enabled=True)
        )
        obs = Observability.from_config(config.observability)
        partitioner = GSAPPartitioner(
            config, device=Device(A4000), observability=obs
        )
        partitioner.partition(graph)

        def counter(name):
            metric = obs.metrics.get(name)
            return metric.value if metric is not None else 0.0

        assert counter("blockmodel_incremental_updates_total") > 0

    def test_run_report_counts_incremental_updates(self):
        from repro.obs.report import build_run_report, run_report_markdown

        graph, _ = load_dataset("low_low", 200, seed=1)
        config = SBPConfig(**BASE_KW).replace(
            observability=ObservabilityConfig(enabled=True)
        )
        obs = Observability.from_config(config.observability)
        partitioner = GSAPPartitioner(
            config, device=Device(A4000), observability=obs
        )
        result = partitioner.partition(graph)
        report = build_run_report(result, obs=obs)
        assert "blockmodel" in report
        assert report["blockmodel"]["incremental_updates"] > 0
        assert set(report["blockmodel"]) == {"incremental_updates"}
        assert "- incremental updates: " in run_report_markdown(report)


@pytest.mark.faults
class TestFaultRepairWithIncremental:
    """Bitflip + repair with the incremental maintainer active.

    A repaired blockmodel is a fresh object, so the maintainer must
    re-adopt it (re-deriving its sorted-key mirror) — the run must still end
    byte-identical to a fault-free audited run.
    """

    def test_bitflip_repair_restores_byte_identical_state(self):
        from repro import FaultPlan, FaultSpec, install_fault_injector

        graph, _ = load_dataset("low_low", 120, seed=1)
        config = SBPConfig(**BASE_KW)
        config = config.replace(
            integrity=config.integrity.replace(
                audit=True, audit_every=1, repair=True
            )
        )
        baseline = GSAPPartitioner(config, device=Device(A4000)).partition(
            graph
        )
        assert baseline.integrity.corruptions_detected == 0
        device = Device(A4000)
        install_fault_injector(device, FaultPlan(faults=[
            FaultSpec(kind="bitflip", target="csr_out_wgt", at=9,
                      index=2, bit=4),
        ]))
        result = GSAPPartitioner(config, device=device).partition(graph)
        assert result.integrity.corruptions_detected >= 1
        assert result.integrity.repairs >= 1
        assert np.array_equal(result.partition, baseline.partition)
        assert result.num_blocks == baseline.num_blocks
        assert result.mdl == baseline.mdl
