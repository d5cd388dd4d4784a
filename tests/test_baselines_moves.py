"""The CPU engines' shared vertex-move body against the per-vertex rule.

:func:`repro.baselines.moves.score_moves` proposes per vertex but scores
a batch in one pass against a :class:`BlockmodelCSR`.  The oracle below
is the per-vertex rule it replaced, inlined: ``move_delta_dense`` +
``hastings_correction_dense`` per proposal on the dense blockmodel, the
acceptance uniform drawn only when ``s != r``.  Both must accept the
same moves and leave the generator in the same state.
:func:`repro.baselines.moves.apply_accepted` folds a batch into the CSR
through ``IncrementalBlockmodel.apply_batch``; its oracle is the
per-move dense loop, inlined below.
"""

import math
from bisect import bisect_right

import numpy as np
import pytest

from conftest import tracked
from repro.baselines import moves
from repro.baselines.moves import (
    FrozenRows,
    apply_accepted,
    propose_from_blockmodel,
    score_moves,
    vertex_neighborhood,
)
from repro.blockmodel.delta import hastings_correction_dense, move_delta_dense
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.update import rebuild_blockmodel
from repro.errors import PartitionError
from repro.gpusim.device import Device
from repro.graph.datasets import load_dataset


def assert_same_model(csr, dense):
    csr.validate()
    np.testing.assert_array_equal(csr.to_dense(), dense.matrix)
    np.testing.assert_array_equal(csr.deg_out, dense.deg_out)
    np.testing.assert_array_equal(csr.deg_in, dense.deg_in)


def per_vertex_rule(graph, model, dense, bmap, vertices, rng, beta):
    """The old per-vertex MH loop, proposing from the CSR *model* and
    scoring on its *dense* copy; returns ``(accepted, stayed, rejected)``."""
    accepted, stayed, rejected = [], 0, 0
    for v in vertices:
        v = int(v)
        r = int(bmap[v])
        nbhd = vertex_neighborhood(graph, bmap, v)
        pivots = np.concatenate([nbhd.k_out_blocks, nbhd.k_in_blocks])
        pivot_w = np.concatenate([nbhd.k_out_weights, nbhd.k_in_weights])
        s = propose_from_blockmodel(model, pivots, np.cumsum(pivot_w), rng)
        if s == r:
            stayed += 1
            continue
        delta = move_delta_dense(dense, r, s, nbhd)
        hastings = hastings_correction_dense(dense, r, s, nbhd)
        exponent = min(700.0, max(-700.0, -beta * delta))
        if rng.random() < min(1.0, math.exp(exponent) * hastings):
            accepted.append((v, r, s))
        else:
            rejected += 1
    return accepted, stayed, rejected


def run_sweeps(graph, bmap, num_blocks, batch_size, beta, seed, sweeps=3):
    """Score every batch both ways, apply the accepted moves, repeat."""
    bmap = np.array(bmap)
    incremental = tracked(graph, bmap, num_blocks)
    model = incremental.blockmodel
    rng = np.random.default_rng(seed)
    totals = np.zeros(3, dtype=int)
    for _ in range(sweeps):
        order = rng.permutation(graph.num_vertices)
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            oracle_rng = np.random.default_rng()
            oracle_rng.bit_generator.state = rng.bit_generator.state
            dense = DenseBlockmodel.from_graph(graph, bmap, num_blocks)
            assert_same_model(model, dense)
            expected, stayed, rejected = per_vertex_rule(
                graph, model, dense, bmap, batch, oracle_rng, beta
            )
            got, proposal_s = score_moves(graph, model, bmap, batch, rng, beta)
            assert got == expected
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert proposal_s >= 0.0
            totals += (len(got), stayed, rejected)
            model = apply_accepted(incremental, bmap, got)
    return totals


@pytest.mark.parametrize("batch_size", [1, 3, 7])
@pytest.mark.parametrize("beta", [0.5, 3.0])
def test_matches_per_vertex_rule_on_edge_cases(move_edge_cases, batch_size, beta):
    graph, bmap, b, _, _ = move_edge_cases
    totals = sum(
        run_sweeps(graph, bmap, b, batch_size, beta, seed) for seed in range(6)
    )
    accepted, stayed, rejected = totals
    # self-loop movers (0 and 3) are in every sweep; the run must also
    # exercise s == r proposals, accepted moves and rejected moves
    assert accepted > 0 and stayed > 0 and rejected > 0


@pytest.mark.parametrize("batch_size", [1, 16, 120])
def test_matches_per_vertex_rule_on_dataset_graph(batch_size):
    graph, _ = load_dataset("low_low", 120, seed=2)
    bmap = np.random.default_rng(0).integers(0, 8, graph.num_vertices)
    accepted, stayed, rejected = run_sweeps(
        graph, bmap, 8, batch_size, 3.0, seed=batch_size, sweeps=2
    )
    assert accepted > 0 and stayed > 0 and rejected > 0


def test_no_new_block_skips_scoring(move_edge_cases, monkeypatch):
    graph, bmap, b, _, _ = move_edge_cases

    def unreachable(*_args):
        raise AssertionError("scored a batch in which no vertex moves")

    monkeypatch.setattr(moves, "move_delta_hastings", unreachable)
    rng = np.random.default_rng(1)
    # a one-block model can only propose the mover's own block
    one_block = np.zeros_like(bmap)
    model = rebuild_blockmodel(Device(), graph, one_block, 1)
    everyone = np.arange(len(bmap))
    assert score_moves(graph, model, one_block, everyone, rng, 3.0)[0] == []
    model = rebuild_blockmodel(Device(), graph, bmap, b)
    assert score_moves(graph, model, bmap, everyone[:0], rng, 3.0)[0] == []


def sequential_apply(graph, model, bmap, moves):
    """The per-move dense apply loop, one ``apply_move`` per move."""
    applied = []
    for v, r, s in moves:
        current = int(bmap[v])
        if current == s:
            continue
        nbhd = vertex_neighborhood(graph, bmap, v)
        model.apply_move(
            current, s,
            nbhd.k_out_blocks, nbhd.k_out_weights.astype(np.int64),
            nbhd.k_in_blocks, nbhd.k_in_weights.astype(np.int64),
            nbhd.self_weight,
        )
        bmap[v] = s
        applied.append((v, r, s))
    return applied


def random_moves(rng, bmap, b, size):
    """Moves as a batch accepts them: distinct vertices, each from its
    current block to another one."""
    vertices = rng.choice(len(bmap), size, replace=False)
    r = bmap[vertices]
    s = (r + rng.integers(1, b, size)) % b
    return list(zip(vertices.tolist(), r.tolist(), s.tolist()))


def linked(graph, moves):
    """Whether some edge joins two movers of the batch (or is a mover's
    self-loop): the edges the batched apply must count once."""
    movers = np.zeros(graph.num_vertices, dtype=bool)
    movers[[v for v, _, _ in moves]] = True
    src, dst, _ = graph.edge_arrays()
    return bool((movers[src] & movers[dst]).any())


class TestApplyMoves:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", ["edge_cases", "dataset"])
    def test_matches_sequential_loop(self, move_edge_cases, case, seed):
        if case == "edge_cases":
            # self-loops on vertices 0 and 3; vertex 6 has no edges
            graph, bmap, b, _, _ = move_edge_cases
            sizes = (1, 3, 5, 7)
        else:
            graph, _ = load_dataset("low_low", 120, seed=2)
            b = 8
            bmap = np.random.default_rng(seed).integers(0, b, graph.num_vertices)
            sizes = (1, 16, 60, 120)
        rng = np.random.default_rng(100 + seed)
        got_bmap = np.array(bmap)
        incremental = tracked(graph, got_bmap, b)
        want_bmap = got_bmap.copy()
        want = DenseBlockmodel.from_graph(graph, want_bmap, b)
        joined = 0
        for size in sizes:
            moves = random_moves(rng, want_bmap, b, size)
            joined += linked(graph, moves)
            assert sequential_apply(graph, want, want_bmap, moves) == moves
            got = apply_accepted(incremental, got_bmap, moves)
            np.testing.assert_array_equal(got_bmap, want_bmap)
            assert_same_model(got, want)
        assert joined
        fresh = DenseBlockmodel.from_graph(graph, got_bmap, b)
        np.testing.assert_array_equal(got.to_dense(), fresh.matrix)

    def test_stale_moves_keep_model_consistent(self, move_edge_cases):
        """Moves scored against one frozen model apply as one batch.

        Vertices 0 and 3 carry self-loops, and the edges 0→2, 2→3 and
        3→0 join the three movers, so each of those edges moves both of
        its cells at once.
        """
        graph, bmap, b, _, _ = move_edge_cases
        bmap = np.array(bmap)
        incremental = tracked(graph, bmap, b)
        batch = [(0, 0, 2), (3, 1, 0), (2, 1, 2)]
        model = apply_accepted(incremental, bmap, batch)
        assert incremental.incremental_updates == 1
        assert bmap.tolist() == [2, 0, 2, 0, 2, 2, 2]
        fresh = DenseBlockmodel.from_graph(graph, bmap, b)
        assert_same_model(model, fresh)

    def test_moves_inconsistent_with_the_model_raise(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        model = DenseBlockmodel.from_graph(graph, bmap, b)
        # the model still counts vertex 0 in block 0, but bmap says block
        # 2, so moving it out of block 2 drives M[1,2] below zero
        wrong = np.array(bmap)
        wrong[0] = 2
        with pytest.raises(PartitionError):
            sequential_apply(graph, model.copy(), wrong.copy(), [(0, 2, 1)])
        with pytest.raises(PartitionError):
            apply_accepted(tracked(graph, bmap, b), wrong.copy(), [(0, 2, 1)])

    def test_no_moves_change_nothing(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        bmap = np.array(bmap)
        incremental = tracked(graph, bmap, b)
        before = incremental.blockmodel
        assert apply_accepted(incremental, bmap, []) is before
        assert incremental.incremental_updates == 0
        fresh = DenseBlockmodel.from_graph(graph, bmap, b)
        assert_same_model(before, fresh)


def brute_force_draw(dense, pivots, pivot_run, rng, exclude):
    """The CPU proposal rule over the dense row + column of the pivot,
    with entry *exclude* zeroed and the block searched in its running sum."""
    b = dense.num_blocks

    def random_block():
        pick = int(rng.integers(0, b - 1))
        return pick + (pick >= exclude)

    total = pivot_run[-1] if len(pivot_run) else 0.0
    if len(pivots) == 0 or total <= 0:
        return random_block()
    u = int(pivots[bisect_right(pivot_run, rng.random() * total)])
    deg = dense.deg_out + dense.deg_in
    if rng.random() <= b / (deg[u] + b):
        return random_block()
    weights = (dense.matrix[u, :] + dense.matrix[:, u]).astype(np.float64)
    weights[exclude] = 0.0
    total = weights.sum()
    if total <= 0:
        return random_block()
    x = rng.random() * total
    return int(np.searchsorted(np.cumsum(weights), x, side="right"))


@pytest.mark.parametrize("category,num_blocks", [
    ("low_low", 6), ("low_low", 40), ("high_high", 3), ("high_low", 25),
])
def test_frozen_rows_read_the_dense_rows(category, num_blocks):
    """Running sums, excluded weights and exclude= draws off the CSR
    equal the dense blockmodel's, block by block."""
    graph, _ = load_dataset(category, 120, seed=4)
    bmap = np.random.default_rng(num_blocks).integers(
        0, num_blocks, graph.num_vertices
    )
    bmap[:num_blocks] = np.arange(num_blocks)
    dense = DenseBlockmodel.from_graph(graph, bmap, num_blocks)
    model = rebuild_blockmodel(Device(), graph, bmap, num_blocks)
    rows = FrozenRows(model)
    m = dense.matrix
    blocks = np.arange(num_blocks)
    rng = np.random.default_rng(7)
    oracle_rng = np.random.default_rng(7)
    for u in range(num_blocks):
        want = np.cumsum(m[u, :] + m[:, u], dtype=np.float64)
        np.testing.assert_array_equal(rows.cumsum(u), want)
        for r in range(num_blocks):
            assert rows.step(rows.cumsum(u), r) == m[u, r] + m[r, u]
        for _ in range(20):
            got = propose_from_blockmodel(
                model, blocks, rows.cumsum(u), rng, exclude=u, cache=rows
            )
            assert got == brute_force_draw(dense, blocks, want, oracle_rng, u)
            assert got != u
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
