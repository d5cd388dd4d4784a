"""The CPU engines' shared vertex-move body against the per-vertex rule.

:func:`repro.baselines.moves.score_moves` proposes per vertex but scores
a batch in one pass.  The oracle below is the per-vertex rule it
replaced, inlined: ``move_delta_dense`` + ``hastings_correction_dense``
per proposal, the acceptance uniform drawn only when ``s != r``.  Both
must accept the same moves and leave the generator in the same state.
:func:`repro.baselines.moves.apply_moves` applies a batch in one pass;
its oracle is the per-move loop it replaced, inlined below.
"""

import math

import numpy as np
import pytest

from repro.baselines import moves
from repro.baselines.common import hastings_correction_dense
from repro.baselines.moves import (
    apply_moves,
    propose_from_blockmodel,
    score_moves,
    vertex_neighborhood,
)
from repro.blockmodel.delta import move_delta_dense
from repro.blockmodel.dense import DenseBlockmodel
from repro.errors import PartitionError
from repro.graph.datasets import load_dataset


def per_vertex_rule(graph, model, bmap, vertices, rng, beta):
    """The old per-vertex MH loop; returns ``(accepted, stayed, rejected)``."""
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
        delta = move_delta_dense(model, r, s, nbhd)
        hastings = hastings_correction_dense(model, r, s, nbhd)
        exponent = min(700.0, max(-700.0, -beta * delta))
        if rng.random() < min(1.0, math.exp(exponent) * hastings):
            accepted.append((v, r, s))
        else:
            rejected += 1
    return accepted, stayed, rejected


def run_sweeps(graph, bmap, num_blocks, batch_size, beta, seed, sweeps=3):
    """Score every batch both ways, apply the accepted moves, repeat."""
    bmap = np.array(bmap)
    model = DenseBlockmodel.from_graph(graph, bmap, num_blocks)
    rng = np.random.default_rng(seed)
    totals = np.zeros(3, dtype=int)
    for _ in range(sweeps):
        order = rng.permutation(graph.num_vertices)
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            oracle_rng = np.random.default_rng()
            oracle_rng.bit_generator.state = rng.bit_generator.state
            expected, stayed, rejected = per_vertex_rule(
                graph, model, bmap, batch, oracle_rng, beta
            )
            got, proposal_s = score_moves(graph, model, bmap, batch, rng, beta)
            assert got == expected
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert proposal_s >= 0.0
            totals += (len(got), stayed, rejected)
            apply_moves(graph, model, bmap, got)
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
    model = DenseBlockmodel.from_graph(graph, one_block, 1)
    everyone = np.arange(len(bmap))
    assert score_moves(graph, model, one_block, everyone, rng, 3.0)[0] == []
    model = DenseBlockmodel.from_graph(graph, bmap, b)
    assert score_moves(graph, model, bmap, everyone[:0], rng, 3.0)[0] == []


def sequential_apply(graph, model, bmap, moves):
    """The per-move apply loop the batched ``apply_moves`` replaced."""
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
    """Moves with repeated vertices, stale ``r`` and no-op ``s``."""
    vertices = rng.integers(0, len(bmap), size)
    stale = rng.integers(0, b, size)
    r = np.where(rng.random(size) < 0.5, bmap[vertices], stale)
    s = rng.integers(0, b, size)
    return list(zip(vertices.tolist(), r.tolist(), s.tolist()))


class TestApplyMoves:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", ["edge_cases", "dataset"])
    def test_matches_sequential_loop(self, move_edge_cases, case, seed):
        if case == "edge_cases":
            # self-loops on vertices 0 and 3; vertex 6 has no edges
            graph, bmap, b, _, _ = move_edge_cases
            sizes = (1, 3, 8, 20)
        else:
            graph, _ = load_dataset("low_low", 120, seed=2)
            b = 8
            bmap = np.random.default_rng(seed).integers(0, b, graph.num_vertices)
            sizes = (1, 16, 120, 300)
        rng = np.random.default_rng(100 + seed)
        got_bmap = np.array(bmap)
        got = DenseBlockmodel.from_graph(graph, got_bmap, b)
        want_bmap = got_bmap.copy()
        want = got.copy()
        duplicates = stale = no_ops = 0
        for size in sizes:
            moves = random_moves(rng, want_bmap, b, size)
            vertices = [v for v, _, _ in moves]
            duplicates += len(vertices) - len(set(vertices))
            stale += sum(r != want_bmap[v] for v, r, _ in moves)
            no_ops += sum(s == want_bmap[v] for v, _, s in moves)
            expected = sequential_apply(graph, want, want_bmap, moves)
            assert apply_moves(graph, got, got_bmap, moves) == expected
            np.testing.assert_array_equal(got_bmap, want_bmap)
            np.testing.assert_array_equal(got.matrix, want.matrix)
            np.testing.assert_array_equal(got.deg_out, want.deg_out)
            np.testing.assert_array_equal(got.deg_in, want.deg_in)
        assert duplicates and stale and no_ops
        fresh = DenseBlockmodel.from_graph(graph, got_bmap, b)
        np.testing.assert_array_equal(got.matrix, fresh.matrix)

    def test_stale_moves_keep_model_consistent(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        bmap = np.array(bmap)
        model = DenseBlockmodel.from_graph(graph, bmap, b)
        # vertex 0 moves twice (the second from its *current* block),
        # and vertex 4's move is already a no-op
        stale = [(0, 0, 1), (0, 0, 2), (4, 2, 2), (3, 1, 0)]
        applied = apply_moves(graph, model, bmap, stale)
        assert applied == [(0, 0, 1), (0, 0, 2), (3, 1, 0)]
        assert bmap.tolist() == [2, 0, 1, 0, 2, 2, 2]
        fresh = DenseBlockmodel.from_graph(graph, bmap, b)
        np.testing.assert_array_equal(model.matrix, fresh.matrix)
        np.testing.assert_array_equal(model.deg_out, fresh.deg_out)
        np.testing.assert_array_equal(model.deg_in, fresh.deg_in)

    def test_moves_inconsistent_with_the_model_raise(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        model = DenseBlockmodel.from_graph(graph, bmap, b)
        # the model still counts vertex 0 in block 0, but bmap says block
        # 2, so moving it out of block 2 drives M[1,2] below zero
        wrong = np.array(bmap)
        wrong[0] = 2
        for apply in (sequential_apply, apply_moves):
            with pytest.raises(PartitionError):
                apply(graph, model.copy(), wrong.copy(), [(0, 2, 1)])

    def test_no_moves_change_nothing(self, move_edge_cases):
        graph, bmap, b, _, _ = move_edge_cases
        bmap = np.array(bmap)
        model = DenseBlockmodel.from_graph(graph, bmap, b)
        assert apply_moves(graph, model, bmap, []) == []
        assert apply_moves(graph, model, bmap, [(1, 0, 0), (1, 1, 0)]) == []
        fresh = DenseBlockmodel.from_graph(graph, bmap, b)
        np.testing.assert_array_equal(model.matrix, fresh.matrix)
