"""The one vertex-move body of the CPU baselines.

The reference, uSAP, I-SBP and every EDiSt rank propose moves vertex by
vertex with the CPU rule, then score the batch in one pass against the
blockmodel frozen at batch start (:func:`score_moves`, on the host body
of GSAP's vertex-move scoring kernel) and apply the accepted moves in place
(:func:`apply_moves`).  A batch of one is the serial MCMC chain.  The
acceptance uniform is drawn right after its proposal, only when
``s != r``, so the random stream is that of the per-vertex MH rule.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..blockmodel.delta import VertexNeighborhood, move_delta_hastings
from ..blockmodel.dense import DenseBlockmodel
from ..core.vertex_move import move_context
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


def propose_from_blockmodel(
    model: DenseBlockmodel,
    pivot_candidates: np.ndarray,
    pivot_weights: np.ndarray,
    rng: np.random.Generator,
    exclude: Optional[int] = None,
) -> int:
    """The CPU proposal rule (the per-proposal work GSAP amortises away).

    Sample a pivot block ``u`` by *pivot_weights*; with probability
    ``B/(deg(u)+B)`` return a uniform random block, otherwise sample a
    block from row+column ``u`` of the blockmodel.  When *exclude* is
    given (merge proposals) the excluded block is never returned.
    """
    b = model.num_blocks
    deg = model.deg_out + model.deg_in

    def random_block() -> int:
        if exclude is None:
            return int(rng.integers(0, b))
        pick = int(rng.integers(0, b - 1))
        return pick + (pick >= exclude)

    total = pivot_weights.sum()
    if len(pivot_candidates) == 0 or total <= 0:
        return random_block()
    u = int(pivot_candidates[
        np.searchsorted(np.cumsum(pivot_weights), rng.random() * total, side="right")
    ])
    if rng.random() <= b / (deg[u] + b):
        return random_block()
    row = model.matrix[u, :].astype(FLOAT_DTYPE)
    col = model.matrix[:, u].astype(FLOAT_DTYPE)
    weights = row + col
    if exclude is not None:
        weights[exclude] = 0.0
    total = weights.sum()
    if total <= 0:
        return random_block()
    csum = np.cumsum(weights)
    return int(np.searchsorted(csum, rng.random() * total, side="right"))


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
    s_all = ctx.s.copy()
    u = np.ones(len(s_all))
    proposal_time = 0.0
    for i in range(len(s_all)):
        t0 = time.perf_counter()
        o_lo, o_hi = ctx.kout_ptr[i], ctx.kout_ptr[i + 1]
        i_lo, i_hi = ctx.kin_ptr[i], ctx.kin_ptr[i + 1]
        pivots = np.concatenate([ctx.kout_blk[o_lo:o_hi], ctx.kin_blk[i_lo:i_hi]])
        pivot_w = np.concatenate([ctx.kout_w[o_lo:o_hi], ctx.kin_w[i_lo:i_hi]])
        s = propose_from_blockmodel(model, pivots, pivot_w, rng)
        proposal_time += time.perf_counter() - t0
        s_all[i] = s
        if s != ctx.r[i]:
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
    """
    applied: List[Move] = []
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
