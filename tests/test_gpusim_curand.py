"""Tests for the cuRAND-style lookup-table generators (paper Fig. 4)."""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.gpusim.curand import (
    build_lookup_tables,
    cumulative_weights,
    multinomial_neighbor_table,
    random_block_table,
    uniform_table,
)
from repro.gpusim.device import A4000, Device
from repro.graph.csr import combined_adjacency


@pytest.fixture
def dev():
    return Device(A4000)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestUniformTable:
    def test_range_and_size(self, dev, rng):
        table = uniform_table(dev, rng, 1000)
        assert len(table) == 1000
        assert table.min() >= 0.0 and table.max() < 1.0

    def test_profiled(self, dev, rng):
        uniform_table(dev, rng, 10, phase="block_merge")
        rec = dev.profiler.kernel_records[-1]
        assert rec.name == "curand_uniform"
        assert rec.phase == "block_merge"


class TestRandomBlockTable:
    def test_range(self, dev, rng):
        table = random_block_table(dev, rng, 500, 7)
        assert table.min() >= 0 and table.max() < 7

    def test_covers_blocks(self, dev, rng):
        table = random_block_table(dev, rng, 5000, 7)
        assert set(np.unique(table)) == set(range(7))


class TestMultinomialTable:
    def simple_csr(self):
        # row 0: nbr 1 (w 1), nbr 2 (w 9); row 1: empty; row 2: nbr 0 (w 5)
        ptr = np.array([0, 2, 2, 3])
        nbr = np.array([1, 2, 0])
        wgt = np.array([1, 9, 5])
        return ptr, nbr, wgt

    def test_empty_rows_get_minus_one(self, dev, rng):
        ptr, nbr, wgt = self.simple_csr()
        out = multinomial_neighbor_table(dev, rng, [(ptr, nbr, wgt)])
        assert out[1] == -1

    def test_samples_only_neighbors(self, dev, rng):
        ptr, nbr, wgt = self.simple_csr()
        rows = np.zeros(200, dtype=np.int64)
        out = multinomial_neighbor_table(dev, rng, [(ptr, nbr, wgt)], rows=rows)
        assert set(np.unique(out)) <= {1, 2}

    def test_weight_proportional(self, dev, rng):
        ptr, nbr, wgt = self.simple_csr()
        rows = np.zeros(4000, dtype=np.int64)
        out = multinomial_neighbor_table(dev, rng, [(ptr, nbr, wgt)], rows=rows)
        frac_2 = np.mean(out == 2)
        assert 0.85 < frac_2 < 0.95  # expected 0.9

    def test_single_row_subset(self, dev, rng):
        ptr, nbr, wgt = self.simple_csr()
        out = multinomial_neighbor_table(
            dev, rng, [(ptr, nbr, wgt)], rows=np.array([2])
        )
        np.testing.assert_array_equal(out, [0])

    def test_empty_adjacency(self, dev, rng):
        out = multinomial_neighbor_table(
            dev, rng, [(np.array([0, 0]), np.array([], dtype=int),
                        np.array([], dtype=int))],
        )
        np.testing.assert_array_equal(out, [-1])


    @pytest.mark.parametrize("seed", range(6))
    def test_parts_draw_like_their_combined_copy(self, dev, seed):
        """A blockmodel's two directions, given as parts, draw the same
        neighbours from the same stream as their combined copy; a part's
        prefix sum passed in changes nothing."""
        gen = np.random.default_rng(seed)
        b = int(gen.integers(2, 12))
        dense = gen.integers(0, 5, (b, b)) * (gen.random((b, b)) < 0.4)
        dense[gen.integers(0, b)] = 0
        dense[:, gen.integers(0, b)] = 0
        bm = BlockmodelCSR.from_dense(dense)
        out = (bm.out_ptr, bm.out_nbr, bm.out_wgt)
        inn = (bm.in_ptr, bm.in_nbr, bm.in_wgt)
        combined = combined_adjacency(out, inn)
        rows = gen.integers(0, b, 5 * b)
        want = multinomial_neighbor_table(
            dev, np.random.default_rng(seed), [combined], rows=rows
        )
        for parts in (
            [out, inn],
            [(*out, cumulative_weights(out[2])), inn],
            [(*combined, cumulative_weights(combined[2]))],
        ):
            got = multinomial_neighbor_table(
                dev, np.random.default_rng(seed), parts, rows=rows
            )
            np.testing.assert_array_equal(got, want)


class TestBuildLookupTables:
    def test_builds_all_three(self, dev, rng):
        ptr = np.array([0, 1, 2])
        nbr = np.array([1, 0])
        wgt = np.array([1, 1])
        tables = build_lookup_tables(dev, rng, 10, 2, [(ptr, nbr, wgt)])
        assert len(tables.uniform) == 10
        assert len(tables.random_block) == 10
        assert len(tables.multinomial) == 2

    def test_determinism(self, dev):
        ptr = np.array([0, 1, 2])
        nbr = np.array([1, 0])
        wgt = np.array([1, 1])
        t1 = build_lookup_tables(
            dev, np.random.default_rng(5), 20, 2, [(ptr, nbr, wgt)]
        )
        t2 = build_lookup_tables(
            dev, np.random.default_rng(5), 20, 2, [(ptr, nbr, wgt)]
        )
        np.testing.assert_array_equal(t1.uniform, t2.uniform)
        np.testing.assert_array_equal(t1.random_block, t2.random_block)
        np.testing.assert_array_equal(t1.multinomial, t2.multinomial)
