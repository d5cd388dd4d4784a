"""The CPU engines' shared vertex-move body against the per-vertex rule.

:func:`repro.baselines.moves.score_moves` proposes per vertex but scores
a batch in one pass.  The oracle below is the per-vertex rule it
replaced, inlined: ``move_delta_dense`` + ``hastings_correction_dense``
per proposal, the acceptance uniform drawn only when ``s != r``.  Both
must accept the same moves and leave the generator in the same state.
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
        s = propose_from_blockmodel(model, pivots, pivot_w, rng)
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

    monkeypatch.setattr(moves, "move_delta_cells", unreachable)
    monkeypatch.setattr(moves, "hastings_ratio", unreachable)
    rng = np.random.default_rng(1)
    # a one-block model can only propose the mover's own block
    one_block = np.zeros_like(bmap)
    model = DenseBlockmodel.from_graph(graph, one_block, 1)
    everyone = np.arange(len(bmap))
    assert score_moves(graph, model, one_block, everyone, rng, 3.0)[0] == []
    model = DenseBlockmodel.from_graph(graph, bmap, b)
    assert score_moves(graph, model, bmap, everyone[:0], rng, 3.0)[0] == []


class TestApplyMoves:
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
