"""Tests for the simulated-distributed EDiSt baseline."""

import numpy as np
import pytest

from repro.baselines.common import vertex_neighborhood
from repro.baselines.edist import MOVE_RECORD_BYTES, CommStats, EDiStPartitioner
from repro.config import SBPConfig
from repro.core.vertex_move import move_context
from repro.dist import shard_vertices
from repro.errors import PartitionError
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


class TestCommStats:
    def test_alltoall_accounting(self):
        comm = CommStats()
        comm.record_alltoall(4, [100, 0, 50, 25])
        assert comm.rounds == 1
        # the zero-payload rank sends no data frames at all (its
        # heartbeat is control traffic, counted separately)
        assert comm.messages == 3 * 3
        assert comm.bytes_sent == (100 + 50 + 25) * 3

    def test_single_rank_sends_nothing(self):
        comm = CommStats()
        comm.record_alltoall(1, [500])
        assert comm.messages == 0
        assert comm.bytes_sent == 0


class TestEDiSt:
    def test_full_run_quality(self, bench_graph, quick_config):
        graph, truth = bench_graph
        partitioner = EDiStPartitioner(quick_config, num_ranks=4)
        result = partitioner.partition(graph)
        assert result.algorithm == "EDiSt"
        assert nmi(result.partition, truth) > 0.6

    def test_communication_recorded(self, bench_graph, quick_config):
        graph, _ = bench_graph
        partitioner = EDiStPartitioner(quick_config, num_ranks=4)
        partitioner.partition(graph)
        assert partitioner.comm.rounds > 0
        assert partitioner.comm.bytes_sent > 0
        assert partitioner.comm.bytes_sent % MOVE_RECORD_BYTES == 0

    def test_comm_grows_with_ranks(self, bench_graph, quick_config):
        """The paper's noted bottleneck: all-to-all volume grows with
        node count for the same workload."""
        graph, _ = bench_graph
        volumes = []
        for ranks in (2, 8):
            p = EDiStPartitioner(quick_config, num_ranks=ranks)
            p.partition(graph)
            volumes.append(p.comm.bytes_sent)
        assert volumes[1] > volumes[0]

    def test_single_rank_degenerates_to_serial(self, bench_graph, quick_config):
        graph, truth = bench_graph
        p = EDiStPartitioner(quick_config, num_ranks=1)
        result = p.partition(graph)
        assert p.comm.bytes_sent == 0
        assert nmi(result.partition, truth) > 0.6

    def test_shards_cover_all_vertices(self, quick_config):
        p = EDiStPartitioner(quick_config, num_ranks=3)
        shards = p._shards(10)
        assert len(shards) == 3
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))

    @pytest.mark.parametrize("num_ranks", [1, 10, 11])
    def test_shard_edge_cases(self, quick_config, num_ranks):
        """ranks == 1, ranks == n, and ranks == n + 1 (one empty)."""
        p = EDiStPartitioner(quick_config, num_ranks=num_ranks)
        shards = p._shards(10)
        assert len(shards) == num_ranks
        combined = np.concatenate(shards)
        np.testing.assert_array_equal(np.sort(combined), np.arange(10))
        empties = sum(1 for s in shards if len(s) == 0)
        assert empties == max(0, num_ranks - 10)

    def test_more_ranks_than_vertices_runs_and_counts_empties(
        self, quick_config
    ):
        graph, truth = load_dataset("low_low", 20, seed=4)
        p = EDiStPartitioner(quick_config, num_ranks=24)
        result = p.partition(graph)
        assert p.comm.empty_shards >= 4
        assert result.dist["empty_shards"] == p.comm.empty_shards
        assert len(result.partition) == 20

    def test_move_phase_reports_applied_moves(
        self, bench_graph, quick_config, monkeypatch
    ):
        from repro.blockmodel.incremental import IncrementalBlockmodel

        applied, reported = [], []
        apply_batch = IncrementalBlockmodel.apply_batch
        move_phase = EDiStPartitioner._move_phase

        def counted_apply(self, bmap, movers, *args, **kwargs):
            applied.append(len(movers))
            return apply_batch(self, bmap, movers, *args, **kwargs)

        def counted_phase(self, *args):
            result = move_phase(self, *args)
            reported.append(result.num_moves_accepted)
            return result

        monkeypatch.setattr(IncrementalBlockmodel, "apply_batch", counted_apply)
        monkeypatch.setattr(EDiStPartitioner, "_move_phase", counted_phase)
        EDiStPartitioner(quick_config, num_ranks=2).partition(bench_graph[0])
        assert sum(reported) == sum(applied) > 0

    def test_bad_rank_count(self, quick_config):
        with pytest.raises(PartitionError):
            EDiStPartitioner(quick_config, num_ranks=0)


class TestBatchedLocalPhase:
    def test_move_context_equals_per_vertex_neighborhoods(self, bench_graph):
        """One context over a permuted shard carries exactly the pivots,
        weights, self-loop weight and degrees the per-vertex
        aggregation gives, so proposals draw from unchanged inputs."""
        graph, _ = bench_graph
        rng = np.random.default_rng(4)
        bmap = rng.integers(0, 9, graph.num_vertices).astype(np.int64)
        shard = shard_vertices(graph.num_vertices, 2)[1]
        order = rng.permutation(shard)
        ctx = move_context(graph, bmap, order, bmap[order])
        assert np.array_equal(ctx.r, bmap[order])
        for i, v in enumerate(order):
            nbhd = vertex_neighborhood(graph, bmap, int(v))
            out = slice(ctx.kout_ptr[i], ctx.kout_ptr[i + 1])
            inn = slice(ctx.kin_ptr[i], ctx.kin_ptr[i + 1])
            assert np.array_equal(ctx.kout_blk[out], nbhd.k_out_blocks)
            assert np.array_equal(ctx.kout_w[out], nbhd.k_out_weights)
            assert np.array_equal(ctx.kin_blk[inn], nbhd.k_in_blocks)
            assert np.array_equal(ctx.kin_w[inn], nbhd.k_in_weights)
            assert ctx.self_w[i] == nbhd.self_weight
            assert ctx.d_out_v[i] == nbhd.d_out
            assert ctx.d_in_v[i] == nbhd.d_in


class TestByteIdentityOracle:
    """Fault-free runs are pinned to their partitions, round counts and
    wire volume, so a refactor of the message runtime or of the shared
    CPU engine code cannot change the answer unnoticed.  The values are
    those of the batched touched-cell merge round, re-recorded when it
    replaced the whole-row merge sums (the pre-:mod:`repro.dist`
    direct-exchange values held until then)."""

    GOLDEN = {
        # num_ranks -> (partition sha256, rounds, bytes_sent)
        4: ("57ece788ad464ce3a9ae054f687cebbe37840763ab684c00a29a7dbabfbbde40",
            36, 30600),
        2: ("cea4367d7db87cee473c2f3149b31a86b880912abfd056090dbce535f3e03280",
            34, 9144),
        1: ("5d33c6c67756dcdd3c9560939dea0ad9b736cb3c75b8664754cb4b8d4e7d30eb",
            36, 0),
    }

    @pytest.mark.parametrize("num_ranks", sorted(GOLDEN))
    def test_faultfree_run_matches_pre_refactor_golden(
        self, bench_graph, quick_config, num_ranks
    ):
        import hashlib

        graph, _ = bench_graph
        p = EDiStPartitioner(quick_config, num_ranks=num_ranks)
        result = p.partition(graph)
        sha = hashlib.sha256(
            np.asarray(result.partition, dtype=np.int64).tobytes()
        ).hexdigest()
        golden_sha, golden_rounds, golden_bytes = self.GOLDEN[num_ranks]
        assert sha == golden_sha
        assert p.comm.rounds == golden_rounds
        assert p.comm.bytes_sent == golden_bytes

    def test_benchmark_workload_output_is_pinned(self):
        """The repo benchmark's ``edist-2rank`` partition, seed 0: the
        labels as little-endian int64, then ``repr`` of the MDL."""
        import hashlib

        graph, _ = load_dataset("low_low", 1000, 0)
        config = SBPConfig(
            seed=0,
            max_num_nodal_itr=30,
            delta_entropy_threshold1=5e-3,
            delta_entropy_threshold2=1e-3,
        )
        result = EDiStPartitioner(config, num_ranks=2).partition(graph)
        digest = hashlib.sha256(
            np.asarray(result.partition, dtype="<i8").tobytes()
        )
        digest.update(repr(float(result.mdl)).encode())
        assert digest.hexdigest() == (
            "b90f5f8d737ed017c8a93d51ab574b1e4f185b64ffea8be68589a76b67575724"
        )
