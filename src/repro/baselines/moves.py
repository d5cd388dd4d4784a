"""The one vertex-move body of the CPU baselines.

The reference, uSAP, I-SBP and every EDiSt rank propose moves vertex by
vertex with the CPU rule, then score the batch in one pass against the
blockmodel frozen at batch start (:func:`score_moves`, on the host body
of GSAP's vertex-move scoring kernel) and apply the accepted moves in place
(:func:`apply_moves`).  A batch of one is the serial MCMC chain.  The
acceptance uniform is drawn right after its proposal, only when
``s != r``, so the random stream is that of the per-vertex MH rule.

The proposals of one batch (or one merge round) read a
:class:`FrozenRows` cache of the frozen model, so each costs O(degree)
host work, and :func:`apply_moves` takes a batch in one vectorised
update; both give exactly the results of the per-call and per-move
forms they replace.
"""

from __future__ import annotations

import dataclasses
import math
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..blockmodel.delta import (
    MoveDeltaContext,
    VertexNeighborhood,
    move_delta_hastings,
)
from ..blockmodel.dense import DenseBlockmodel
from ..core.vertex_move import gather_adjacency_rows, move_context
from ..errors import PartitionError
from ..graph.csr import DiGraphCSR
from ..types import FLOAT_DTYPE, INDEX_DTYPE

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
    built the first time ``u`` is drawn.  Every count is an integer below
    2**53, so each running sum holds exactly the floats a fresh
    ``np.cumsum`` would.  Drop the object when its batch or round ends:
    it does not follow later changes to the model.
    """

    def __init__(self, model: DenseBlockmodel) -> None:
        self.model = model
        self.deg = model.deg_out + model.deg_in
        self._cumsum: Dict[int, np.ndarray] = {}

    def cumsum(self, u: int) -> np.ndarray:
        """Running sum of row + column *u* over all ``B`` blocks."""
        run = self._cumsum.get(u)
        if run is None:
            m = self.model.matrix
            run = self._cumsum[u] = np.cumsum(m[u, :] + m[:, u], dtype=FLOAT_DTYPE)
        return run


def propose_from_blockmodel(
    model: DenseBlockmodel,
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
    m = model.matrix
    excluded = 0 if exclude is None else m[u, exclude] + m[exclude, u]
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
    model: DenseBlockmodel,
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


def apply_moves(
    graph: DiGraphCSR,
    model: DenseBlockmodel,
    bmap: np.ndarray,
    moves: Sequence[Move],
) -> List[Move]:
    """Apply *moves* in order, in place; return the ones applied.

    Each vertex moves from its *current* block (skipped if already in
    ``s``), so moves scored against a stale snapshot stay consistent.
    The result is that of applying the moves one by one, but the model
    takes the round's net change in one pass: each vertex whose block
    changed moves its out-edges from the old row to the new row and its
    in-edges from the old column to the new one, skipping in-edges whose
    source moved too (that source's out-edges carry them).  Only the
    touched cells are checked for a negative count.
    """
    if len(moves) == 0:
        return []
    v, _, s = np.array(moves, dtype=INDEX_DTYPE).T
    # a vertex's block before one of its moves is the s of its previous
    # move, or its bmap block before its first
    order = v.argsort(kind="stable")
    v_o, s_o = v[order], s[order]
    head = np.empty(len(v) + 1, dtype=bool)  # a vertex's first move, or the end
    head[0] = head[-1] = True
    np.not_equal(v_o[1:], v_o[:-1], out=head[1:-1])
    before = bmap[v_o]
    before[1:] = np.where(head[1:-1], before[1:], s_o[:-1])
    keep = np.empty(len(v), dtype=bool)
    keep[order] = before != s_o
    applied = [(a, b, c) for (a, b, c), k in zip(moves, keep.tolist()) if k]

    # net change: each vertex ends in the block of its last move
    movers, dest = v_o[head[1:]], s_o[head[1:]]
    src = bmap[movers]
    changed = src != dest
    movers, src, dest = movers[changed], src[changed], dest[changed]
    o_ptr, o_nbr, o_w = gather_adjacency_rows(graph.out_adj, movers)
    i_ptr, i_nbr, i_w = gather_adjacency_rows(graph.in_adj, movers)
    # every edge x -> y at a mover (its out-edges, then its in-edges)
    # moves from cell (old[x], old[y]) to cell (new[x], new[y])
    x = np.concatenate((movers.repeat(o_ptr[1:] - o_ptr[:-1]), i_nbr))
    y = np.concatenate((o_nbr, movers.repeat(i_ptr[1:] - i_ptr[:-1])))
    old_x, old_y = bmap[x], bmap[y]
    bmap[movers] = dest
    new_x, new_y = bmap[x], bmap[y]
    # an in-edge from another mover is that mover's out-edge too: count
    # it there only
    n_out = len(o_nbr)
    w = np.concatenate((o_w, i_w * (new_x[n_out:] == old_x[n_out:])))
    rows = np.concatenate((old_x, new_x))
    cols = np.concatenate((old_y, new_y))
    weights = np.concatenate((-w, w))
    m = model.matrix
    np.add.at(m, (rows, cols), weights)
    if len(rows) and m[rows, cols].min() < 0:
        raise PartitionError("blockmodel update drove an entry negative")
    # the degrees are the matrix's row and column sums
    np.add.at(model.deg_out, rows, weights)
    np.add.at(model.deg_in, cols, weights)
    return applied
