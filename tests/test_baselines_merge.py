"""The CPU engines' block-merge scoring against the per-proposal rule.

``CPUSBPEngine._merge_phase`` draws every block's proposals, then scores
the whole round in one ``merge_delta_cells`` call (the touched-cell body
GSAP launches).  The oracle below is the loop it replaced: score each
proposal through ``merge_delta_cells`` right after drawing it and keep
the first strict minimum.  Results must be bit-identical, and the
generator must end in the same state.  The round's ΔS must also agree
with ``merge_delta_dense``, the whole-row formula, which is checked here
bit-for-bit against the scalar per-pair formula it batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import build_graph, graphs_with_partitions, tracked
from repro.baselines import common
from repro.baselines.common import CPUSBPEngine
from repro.baselines.moves import FrozenRows, propose_from_blockmodel
from repro.blockmodel.delta import merge_delta_cells, merge_delta_dense
from repro.blockmodel.dense import DenseBlockmodel
from repro.blockmodel.entropy import entropy_terms
from repro.blockmodel.update import rebuild_blockmodel
from repro.config import SBPConfig
from repro.core.block_merge import apply_merges_with_relabel
from repro.errors import NumericalError
from repro.gpusim.device import Device
from repro.graph.datasets import load_dataset


def scalar_merge_delta(model, r, s):
    """The per-pair ΔS formula the batched body replaced."""
    if r == s:
        return 0.0
    m = model.matrix
    d_out, d_in = model.deg_out, model.deg_in
    b = model.num_blocks
    idx = np.arange(b)
    col_keep = (idx != r) & (idx != s)
    n_keep = col_keep.sum()
    old = (
        entropy_terms(m[r, :], np.full(b, d_out[r]), d_in).sum()
        + entropy_terms(m[s, :], np.full(b, d_out[s]), d_in).sum()
        + entropy_terms(m[col_keep, r], d_out[col_keep], np.full(n_keep, d_in[r])).sum()
        + entropy_terms(m[col_keep, s], d_out[col_keep], np.full(n_keep, d_in[s])).sum()
    )
    row_new = m[r, :] + m[s, :]
    row_new[s] += row_new[r]
    row_new[r] = 0
    col_new = m[:, r] + m[:, s]
    col_new[s] += col_new[r]
    col_new[r] = 0
    d_out_new = d_out.astype(float)
    d_in_new = d_in.astype(float)
    d_out_new[s] += d_out_new[r]
    d_in_new[s] += d_in_new[r]
    d_out_new[r] = 0
    d_in_new[r] = 0
    new = (
        entropy_terms(row_new, np.full(b, d_out_new[s]), d_in_new).sum()
        + entropy_terms(
            col_new[col_keep], d_out_new[col_keep], np.full(n_keep, d_in_new[s])
        ).sum()
    )
    return float(old - new)


def per_proposal_merge(num_blocks, bmap, target, rng, graph, num_proposals):
    """The old merge phase: score each proposal as soon as it is drawn,
    rebuild the blockmodel from scratch after each round."""
    proposals = 0
    b = num_blocks
    while b > target:
        best_delta = np.full(b, np.inf)
        best_proposal = np.full(b, -1)
        model = DenseBlockmodel.from_graph(graph, bmap, b)
        bm = rebuild_blockmodel(Device(), graph, bmap, b)
        for r in range(b):
            weights = (model.matrix[r, :] + model.matrix[:, r]).astype(float)
            cands = np.flatnonzero(weights)
            for _ in range(num_proposals):
                s = propose_from_blockmodel(
                    bm, cands, np.cumsum(weights[cands]), rng, exclude=r
                )
                delta = merge_delta_cells(bm, np.array([r]), np.array([s]))[0]
                proposals += 1
                if delta < best_delta[r]:
                    best_delta[r] = delta
                    best_proposal[r] = s
        bmap, b, _, _ = apply_merges_with_relabel(
            bmap, b, best_delta, best_proposal, b - target
        )
    return bmap, proposals


def assert_rows_match(model, r, targets):
    got = merge_delta_dense(model, r, np.asarray(targets))
    expected = [scalar_merge_delta(model, r, int(s)) for s in targets]
    assert got.tolist() == expected  # bit-identical, not approximate
    for s, want in zip(targets, expected):
        assert merge_delta_dense(model, r, int(s)) == want


def test_every_pair_on_edge_cases(move_edge_cases):
    graph, bmap, b, _, _ = move_edge_cases
    # self-loops on vertices 0 and 3 put mass on the {r,s} corners
    model = DenseBlockmodel.from_graph(graph, bmap, b)
    for r in range(b):
        assert_rows_match(model, r, np.arange(b))  # includes s == r
    singletons = np.arange(graph.num_vertices)
    model = DenseBlockmodel.from_graph(graph, singletons, len(singletons))
    for r in range(model.num_blocks):
        assert_rows_match(model, r, np.arange(model.num_blocks))


def test_repeats_and_r_on_dataset_graph():
    graph, _ = load_dataset("high_low", 150, seed=3)
    bmap = np.random.default_rng(4).integers(0, 40, graph.num_vertices)
    model = DenseBlockmodel.from_graph(graph, bmap, 40)
    rng = np.random.default_rng(5)
    for r in range(40):
        targets = rng.integers(0, 40, 12)
        targets[3] = targets[7]  # a repeated proposal
        targets[5] = r           # and r itself, which scores 0
        assert_rows_match(model, r, targets)


def test_two_blocks():
    graph = build_graph([0, 1, 1, 2], [1, 0, 2, 2], [2, 1, 3, 1], num_vertices=3)
    model = DenseBlockmodel.from_graph(graph, np.array([0, 1, 1]), 2)
    assert_rows_match(model, 0, [1, 1, 0])
    assert_rows_match(model, 1, [0])


@settings(max_examples=40, deadline=None)
@given(graphs_with_partitions(max_vertices=10, max_edges=30))
def test_every_pair_on_random_graphs(data):
    graph, bmap, b = data
    model = DenseBlockmodel.from_graph(graph, bmap, b)
    for r in range(b):
        assert_rows_match(model, r, np.arange(b))


def test_corrupt_count_raises_in_a_batch():
    graph = build_graph([0, 1, 2], [1, 2, 0], [1, 1, 1], num_vertices=3)
    model = DenseBlockmodel.from_graph(graph, np.arange(3), 3)
    model.matrix[1, 2] = -1
    with pytest.raises(NumericalError):
        merge_delta_dense(model, 0, np.array([1, 2]))


class RecordingRng:
    """A generator that logs each draw into a shared event list."""

    def __init__(self, seed, events):
        self.gen = np.random.default_rng(seed)
        self.events = events

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def random(self):
        self.events.append("random")
        return self.gen.random()

    def integers(self, *args):
        self.events.append("integers")
        return self.gen.integers(*args)


def star(leaves=8):
    """Hub block 0; every other block's only weight is toward the hub."""
    spokes = np.arange(1, leaves + 1)
    graph = build_graph(
        np.concatenate((spokes, np.zeros(3, dtype=int))),
        np.concatenate((np.zeros(leaves, dtype=int), spokes[:3])),
        np.concatenate((np.arange(20, leaves + 20), [1, 2, 3])),
        num_vertices=leaves + 1,
    )
    return graph, np.arange(leaves + 1)


@pytest.mark.parametrize("category,target", [
    ("low_low", 20), ("high_low", 12), ("high_high", 8), ("star", 3),
])
def test_merge_phase_matches_per_proposal_rule(monkeypatch, category, target):
    if category == "star":
        graph, bmap = star()
    else:
        graph, _ = load_dataset(category, 120, seed=1)
        bmap = np.random.default_rng(2).integers(0, 60, graph.num_vertices)
        bmap = np.unique(bmap, return_inverse=True)[1]
    b = int(bmap.max()) + 1
    config = SBPConfig(num_proposals=6)
    engine = CPUSBPEngine(config)
    # log the rule's reads of a pivot's running sum between its draws
    events = []

    class Rows(FrozenRows):
        def cumsum(self, u):
            events.append("cumsum")
            return super().cumsum(u)

    monkeypatch.setattr(common, "FrozenRows", Rows)
    rng = RecordingRng(3, events)
    oracle_rng = np.random.default_rng(3)
    got_bmap, model, proposals, _ = engine._merge_phase(
        tracked(graph, bmap, b), bmap.copy(), target, rng
    )
    want_bmap, want_proposals = per_proposal_merge(
        b, bmap.copy(), target, oracle_rng, graph, config.num_proposals,
    )
    np.testing.assert_array_equal(got_bmap, want_bmap)
    assert model.num_blocks == target
    np.testing.assert_array_equal(
        model.to_dense(), DenseBlockmodel.from_graph(graph, got_bmap, target).matrix
    )
    assert proposals == want_proposals
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # pivot draw, B/(deg+B) test, the pivot's row read, then a uniform
    # block: the total left after excluding the proposer was 0
    zero_total = sum(
        events[i : i + 4] == ["random", "random", "cumsum", "integers"]
        for i in range(len(events))
    )
    assert zero_total > 0 or category != "star"


def _spy_on_rounds(monkeypatch):
    """Record every ``merge_delta_cells`` call and every applied round."""
    calls, rounds = [], []

    def scored(bm, r, s):
        out = merge_delta_cells(bm, r, s)
        calls.append((bm, r, s, out))
        return out

    def applied(bmap, b, *rest):
        rounds.append(b)
        return apply_merges_with_relabel(bmap, b, *rest)

    monkeypatch.setattr(common, "merge_delta_cells", scored)
    monkeypatch.setattr(common, "apply_merges_with_relabel", applied)
    return calls, rounds


def _merge_down(category, targets, num_proposals=6):
    """Successive merge phases from 60 random blocks down to *targets*."""
    graph, _ = load_dataset(category, 120, seed=1)
    bmap = np.random.default_rng(2).integers(0, 60, graph.num_vertices)
    bmap = np.unique(bmap, return_inverse=True)[1]
    incremental = tracked(graph, bmap, int(bmap.max()) + 1)
    engine = CPUSBPEngine(SBPConfig(num_proposals=num_proposals))
    rng = np.random.default_rng(3)
    for target in targets:
        bmap, _, _, _ = engine._merge_phase(incremental, bmap, target, rng)


@pytest.mark.parametrize("category", ["low_low", "high_high"])
def test_each_round_is_one_merge_delta_cells_call(monkeypatch, category):
    calls, rounds = _spy_on_rounds(monkeypatch)
    _merge_down(category, (30, 15, 8, 4, 2))
    assert len(rounds) >= 5
    assert len(calls) == len(rounds)
    for (bm, r, s, _), b in zip(calls, rounds):
        assert bm.num_blocks == b
        np.testing.assert_array_equal(r, np.repeat(np.arange(b), 6))
        assert len(s) == b * 6


@pytest.mark.parametrize("category", ["low_low", "high_low", "high_high"])
def test_round_delta_agrees_with_merge_delta_dense(monkeypatch, category):
    calls, _ = _spy_on_rounds(monkeypatch)
    _merge_down(category, (20, 8))
    for bm, r, s, got in calls:
        dense = DenseBlockmodel(bm.to_dense())
        for block in range(bm.num_blocks):
            mine = r == block
            np.testing.assert_allclose(
                got[mine], merge_delta_dense(dense, block, s[mine]),
                rtol=1e-9, atol=1e-9,
            )


def test_first_strict_minimum_wins_a_tie():
    # blocks 1..4 are interchangeable leaves of block 0, so merges of 0
    # into leaves 1-3 score exactly the same; the first proposal must win
    src = [0, 0, 0, 0, 1, 2, 3, 4]
    dst = [1, 2, 3, 4, 0, 0, 0, 0]
    graph = build_graph(src, dst, [2] * 4 + [1] * 4, num_vertices=5)
    bmap = np.arange(5)
    model = DenseBlockmodel.from_graph(graph, bmap, 5)
    leaves = np.arange(1, 5)
    deltas = merge_delta_dense(model, 0, leaves)
    assert deltas[0] == deltas[1] == deltas[2]
    for seed in range(5):
        got, _, _, _ = CPUSBPEngine(SBPConfig(num_proposals=4))._merge_phase(
            tracked(graph, bmap, 5), bmap.copy(), 4, np.random.default_rng(seed)
        )
        want, _ = per_proposal_merge(
            5, bmap.copy(), 4, np.random.default_rng(seed), graph, 4
        )
        np.testing.assert_array_equal(got, want)
