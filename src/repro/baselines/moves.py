"""The one vertex-move body of the CPU baselines.

The reference, uSAP, I-SBP and every EDiSt rank propose moves vertex by
vertex with the CPU rule, then score the batch in one pass against the
:class:`~repro.blockmodel.blockmodel.BlockmodelCSR` frozen at batch
start (:func:`score_moves`, on the host body of GSAP's vertex-move
scoring kernel) and fold the accepted moves into the blockmodel with
GSAP's :meth:`~repro.blockmodel.incremental.IncrementalBlockmodel.apply_batch`
(:func:`apply_accepted`).  A batch of one is the serial MCMC chain.  The
acceptance uniform is drawn right after its proposal, only when
``s != r``, so the random stream is that of the per-vertex MH rule.

The proposals of one batch (or one merge round) read a
:class:`FrozenRows` cache of the frozen model, so each costs O(degree)
host work plus one O(B) running sum per distinct pivot block; the draws
are exactly those of a search over the dense row + column.
"""

from __future__ import annotations

import dataclasses
import math
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.delta import (
    MoveDeltaContext,
    VertexNeighborhood,
    move_delta_hastings,
)
from ..blockmodel.incremental import IncrementalBlockmodel
from ..core.vertex_move import move_context
from ..graph.csr import DiGraphCSR
from ..types import FLOAT_DTYPE, INDEX_DTYPE, WEIGHT_DTYPE

#: an accepted vertex move: ``(vertex, source block, destination block)``
Move = Tuple[int, int, int]


def vertex_neighborhood(
    graph: DiGraphCSR, bmap: np.ndarray, v: int
) -> VertexNeighborhood:
    """Aggregate vertex *v*'s adjacency by block (self-loops split out)."""
    onbr, ow = graph.out_neighbors(v)
    inbr, iw = graph.in_neighbors(v)
    self_w = int(ow[onbr == v].sum())
    keep_o = onbr != v
    keep_i = inbr != v
    ob = bmap[onbr[keep_o]]
    ib = bmap[inbr[keep_i]]
    if len(ob):
        ub, inv = np.unique(ob, return_inverse=True)
        uw = np.bincount(inv, weights=ow[keep_o].astype(FLOAT_DTYPE))
    else:
        ub = np.empty(0, dtype=INDEX_DTYPE)
        uw = np.empty(0, dtype=FLOAT_DTYPE)
    if len(ib):
        vb, vinv = np.unique(ib, return_inverse=True)
        vw = np.bincount(vinv, weights=iw[keep_i].astype(FLOAT_DTYPE))
    else:
        vb = np.empty(0, dtype=INDEX_DTYPE)
        vw = np.empty(0, dtype=FLOAT_DTYPE)
    return VertexNeighborhood(
        k_out_blocks=ub.astype(INDEX_DTYPE),
        k_out_weights=uw,
        k_in_blocks=vb.astype(INDEX_DTYPE),
        k_in_weights=vw,
        self_weight=self_w,
    )


class FrozenRows:
    """What the CPU proposal rule reads of a blockmodel frozen for one
    vertex-move batch or one merge round.

    Holds the total degrees ``deg_out + deg_in``, computed once, and per
    pivot block ``u`` the running sum of row + column ``u`` as float64,
    scattered from out-row ``u`` and in-row ``u`` of the CSR the first
    time ``u`` is drawn.  Every count is an integer below 2**53, so each
    running sum holds exactly the floats ``np.cumsum`` of the dense row
    + column would.  Drop the object when its batch or round ends: it
    does not follow later changes to the model.
    """

    def __init__(self, model: BlockmodelCSR) -> None:
        self.model = model
        self.deg = model.deg_out + model.deg_in
        self._cumsum: Dict[int, np.ndarray] = {}

    def cumsum(self, u: int) -> np.ndarray:
        """Running sum of row + column *u* over all ``B`` blocks."""
        run = self._cumsum.get(u)
        if run is None:
            m = self.model
            row = np.zeros(m.num_blocks, dtype=WEIGHT_DTYPE)
            lo, hi = m.out_ptr[u], m.out_ptr[u + 1]
            row[m.out_nbr[lo:hi]] = m.out_wgt[lo:hi]
            lo, hi = m.in_ptr[u], m.in_ptr[u + 1]
            row[m.in_nbr[lo:hi]] += m.in_wgt[lo:hi]
            run = self._cumsum[u] = np.cumsum(row, dtype=FLOAT_DTYPE)
        return run

    @staticmethod
    def step(run: np.ndarray, t: int) -> float:
        """Entry *t* of the row + column that *run* sums: ``M[u, t] +
        M[t, u]`` for ``run = cumsum(u)``."""
        return run[t] - (run[t - 1] if t else 0.0)


def propose_from_blockmodel(
    model: BlockmodelCSR,
    pivot_candidates: Sequence[int],
    pivot_cumsum: Sequence[float],
    rng: np.random.Generator,
    exclude: Optional[int] = None,
    cache: Optional[FrozenRows] = None,
) -> int:
    """The CPU proposal rule (the per-proposal work GSAP amortises away).

    Sample a pivot block ``u`` by the pivot weights, given as their
    running sum *pivot_cumsum*; with probability ``B/(deg(u)+B)`` return
    a uniform random block, otherwise sample a block from row+column
    ``u`` of the blockmodel.  When *exclude* is given (merge proposals)
    the excluded block is never returned.

    *cache* is a :class:`FrozenRows` of *model* shared by every proposal
    of one batch or round; without it the call builds its own.  It does
    not change a draw or its result.
    """
    b = model.num_blocks
    rows = cache if cache is not None else FrozenRows(model)

    def random_block() -> int:
        if exclude is None:
            return int(rng.integers(0, b))
        pick = int(rng.integers(0, b - 1))
        return pick + (pick >= exclude)

    total = pivot_cumsum[-1] if len(pivot_cumsum) else 0.0
    if len(pivot_candidates) == 0 or total <= 0:
        return random_block()
    u = int(pivot_candidates[bisect_right(pivot_cumsum, rng.random() * total)])
    if rng.random() <= b / (rows.deg[u] + b):
        return random_block()
    run = rows.cumsum(u)
    excluded = 0 if exclude is None else rows.step(run, exclude)
    total = run[-1] - excluded
    if total <= 0:
        return random_block()
    x = rng.random() * total
    s = bisect_right(run, x)
    if exclude is not None and s >= exclude:
        # Zeroing the excluded weight lowers the running sum by
        # `excluded` from index `exclude` on.  Every entry before it is
        # <= x, and the sums are integers, so the first entry of the
        # lowered sum above x is the first of `run` above floor(x) +
        # excluded, an exact float.
        s = bisect_right(run, math.floor(x) + excluded)
    return s


def _mover_pivots(
    ctx: MoveDeltaContext,
) -> Tuple[List[int], List[int], List[float]]:
    """Each mover's pivot blocks, out-blocks then in-blocks, with the
    running sum of their weights, in one segmented pass over *ctx*.

    Returns ``(ptr, blocks, run)``: mover ``i`` owns ``[ptr[i],
    ptr[i+1])``.  The sums are integers, so the global running sum less
    its value before a segment is exactly the segment's own.
    """
    kout_ptr, kin_ptr = ctx.kout_ptr, ctx.kin_ptr
    ptr = kout_ptr + kin_ptr
    blocks = np.concatenate((ctx.kout_blk, ctx.kin_blk))
    weights = np.concatenate((ctx.kout_w, ctx.kin_w))
    if ctx.num_movers == 1:  # its out-entries already precede its in-entries
        return ptr.tolist(), blocks.tolist(), weights.cumsum().tolist()
    n_out = kout_ptr[1:] - kout_ptr[:-1]
    n_in = kin_ptr[1:] - kin_ptr[:-1]
    at = np.concatenate((
        np.arange(len(ctx.kout_blk)) + kin_ptr[:-1].repeat(n_out),
        np.arange(len(ctx.kin_blk)) + kout_ptr[1:].repeat(n_in),
    ))
    blocks[at], weights[at] = blocks.copy(), weights.copy()
    run = weights.cumsum()
    run -= np.concatenate(([0.0], run))[ptr[:-1]].repeat(n_out + n_in)
    return ptr.tolist(), blocks.tolist(), run.tolist()


def score_moves(
    graph: DiGraphCSR,
    model: BlockmodelCSR,
    bmap: np.ndarray,
    vertices: np.ndarray,
    rng: np.random.Generator,
    beta: float,
) -> Tuple[List[Move], float]:
    """MH-test a proposed move for every vertex against *model* and *bmap*.

    Returns the accepted ``(v, r, s)`` moves in *vertices* order and the
    seconds spent drawing proposals.
    """
    ctx = move_context(graph, bmap, vertices, bmap[vertices])
    rows = FrozenRows(model)
    ptr, pivots, pivot_run = _mover_pivots(ctx)
    r_all = ctx.r.tolist()
    s_all = ctx.s.copy()
    u = np.ones(len(s_all))
    proposal_time = 0.0
    for i, r in enumerate(r_all):
        t0 = time.perf_counter()
        lo, hi = ptr[i], ptr[i + 1]
        s = propose_from_blockmodel(
            model, pivots[lo:hi], pivot_run[lo:hi], rng, cache=rows
        )
        proposal_time += time.perf_counter() - t0
        s_all[i] = s
        if s != r:
            u[i] = rng.random()
    moving = ctx.r != s_all
    if not moving.any():
        return [], proposal_time
    ctx = dataclasses.replace(ctx, s=s_all)
    delta, hastings = move_delta_hastings(model, ctx)
    exponent = np.clip(-beta * delta, -700.0, 700.0)
    accept = moving & (u < np.minimum(1.0, np.exp(exponent) * hastings))
    moves = zip(vertices[accept].tolist(), ctx.r[accept].tolist(),
                s_all[accept].tolist())
    return list(moves), proposal_time


def apply_accepted(
    incremental: IncrementalBlockmodel,
    bmap: np.ndarray,
    moves: Sequence[Move],
) -> BlockmodelCSR:
    """Apply one batch's accepted moves and return the new blockmodel.

    Relabels the movers in *bmap* in place and folds the batch into the
    blockmodel *incremental* tracks with one
    :meth:`~repro.blockmodel.incremental.IncrementalBlockmodel.apply_batch`.
    The moves are those :func:`score_moves` accepted (or an EDiSt
    round's, gathered over the ranks): each vertex moves at most once,
    from the block it was scored in.
    """
    if len(moves) == 0:
        return incremental.blockmodel
    v, r, s = np.array(moves, dtype=INDEX_DTYPE).T
    bmap[v] = s
    return incremental.apply_batch(bmap, v, r, s)
