"""``gather_rows`` and ``combined_adjacency`` against per-row loops.

Every kernel that walks CSR rows (Algorithm 1's proposals, Algorithm 2's
rebuild, the merge and move ΔMDL, the incremental blockmodel) goes
through these two functions, so they are checked entry by entry against
the plain Python loop over ``ptr``, on graphs and on blockmodels, with
empty rows, repeated rows and an empty row set.
"""

import numpy as np
import pytest

from repro.blockmodel.blockmodel import BlockmodelCSR
from repro.graph.builder import build_graph
from repro.graph.csr import combined_adjacency, gather_rows


def gather_loop(ptr, nbr, wgt, rows):
    seg_ptr, out_nbr, out_wgt = [0], [], []
    for r in rows:
        for k in range(ptr[r], ptr[r + 1]):
            out_nbr.append(nbr[k])
            out_wgt.append(wgt[k])
        seg_ptr.append(len(out_nbr))
    return seg_ptr, out_nbr, out_wgt


def combined_loop(out, inn):
    ptr, nbr, wgt = [0], [], []
    for u in range(len(out[0]) - 1):
        for p, n, w in (out, inn):
            for k in range(p[u], p[u + 1]):
                nbr.append(n[k])
                wgt.append(w[k])
        ptr.append(len(nbr))
    return ptr, nbr, wgt


def random_graph(rng, n):
    """A graph whose last quarter of vertices has no edges at all."""
    m = int(rng.integers(0, 4 * n))
    live = max(n - n // 4, 1)
    src = rng.integers(0, live, m)
    dst = rng.integers(0, live, m)
    return build_graph(src, dst, rng.integers(1, 5, m), num_vertices=n)


def random_blockmodel(rng, b):
    dense = rng.integers(0, 4, (b, b)) * (rng.random((b, b)) < 0.3)
    dense[rng.integers(0, b)] = 0  # an empty row
    dense[:, rng.integers(0, b)] = 0  # an empty column
    return BlockmodelCSR.from_dense(dense)


def row_sets(rng, n):
    return [
        rng.integers(0, n, 3 * n),  # repeats
        np.arange(n)[::-1],
        np.array([n - 1, n - 1, 0]),
        np.array([], dtype=np.int64),
    ]


def csr_pairs(seed):
    """(out, in) CSR triples of one random graph and one blockmodel."""
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, int(rng.integers(1, 40)))
    bm = random_blockmodel(rng, int(rng.integers(1, 12)))
    return rng, [
        (graph.out_adj, graph.in_adj),
        ((bm.out_ptr, bm.out_nbr, bm.out_wgt), (bm.in_ptr, bm.in_nbr, bm.in_wgt)),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_gather_rows_matches_loop(seed):
    rng, pairs = csr_pairs(seed)
    for out, inn in pairs:
        for ptr, nbr, wgt in (tuple(out), tuple(inn)):
            for rows in row_sets(rng, len(ptr) - 1):
                seg_ptr, got_nbr, got_wgt = gather_rows(ptr, nbr, wgt, rows)
                want = gather_loop(ptr, nbr, wgt, rows)
                np.testing.assert_array_equal(seg_ptr, want[0])
                np.testing.assert_array_equal(got_nbr, want[1])
                np.testing.assert_array_equal(got_wgt, want[2])
                assert len(seg_ptr) == len(rows) + 1


@pytest.mark.parametrize("seed", range(12))
def test_combined_adjacency_matches_loop(seed):
    _, pairs = csr_pairs(seed)
    for out, inn in pairs:
        ptr, nbr, wgt = combined_adjacency(out, inn)
        want = combined_loop(tuple(out), tuple(inn))
        np.testing.assert_array_equal(ptr, want[0])
        np.testing.assert_array_equal(nbr, want[1])
        np.testing.assert_array_equal(wgt, want[2])
