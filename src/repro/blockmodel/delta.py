"""ΔMDL computation (paper Eqs. 3-7).

A proposal (block merge or vertex move) only perturbs rows ``r``/``s`` and
columns ``r``/``s`` of the blockmodel, so the MDL change is the difference
of the data-term sums over those rows and columns before and after.  The
2x2 intersection ``{r,s} × {r,s}`` is counted once by including it in the
row sums and excluding it from the column sums — the convention of the
GraphChallenge reference implementation.

Two implementations live here:

* ``*_dense`` — straightforward formulas over whole rows and columns
  of a :class:`DenseBlockmodel`; they are the oracles of the tests and
  no engine calls them;
* :func:`merge_delta_cells` and :func:`move_delta_hastings`, with their
  ``*_batch`` launchers — the formulation every engine runs.  Both
  evaluate the data term's split ``Σ g(M) − Σ g(d_out) − Σ g(d_in)``
  over only the cells a proposal changes, in one launch per batch: a
  vertex move touches about ``deg(v)`` cells plus the degrees of ``r``
  and ``s``; a merge of ``a`` and ``c`` touches the cells where both
  rows (or both columns) are nonzero, the ``{a,c}×{a,c}`` corner and
  the two degree pairs.  The move body returns each mover's Hastings
  correction with its ΔS, read off the same cell lookups.  GSAP
  launches them on the simulated device; the CPU baselines call the
  host bodies directly — :func:`move_delta_hastings` on their
  :class:`DenseBlockmodel` replicas, :func:`merge_delta_cells` once per
  merge round on a CSR view of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import NumericalError
from ..gpusim.device import Device, KernelCost
from ..gpusim import primitives as prim
from ..types import FLOAT_DTYPE, INDEX_DTYPE
from .blockmodel import BlockmodelCSR
from .dense import DenseBlockmodel
from .entropy import entropy_terms

__all__ = [
    "merge_delta_dense",
    "move_delta_dense",
    "MoveDeltaContext",
    "precompute_block_term_sums",
    "merge_delta_batch",
    "merge_delta_cells",
    "move_delta_batch",
    "move_delta_hastings",
]


# ======================================================================
# dense oracles
# ======================================================================
def merge_delta_dense(
    model: DenseBlockmodel, r: int, s: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """Exact data-term ΔS of merging block *r* into block *s* (Eq. 4-6).

    The model term is identical across candidate merges of one phase (the
    resulting block count is the same), so, as in the reference
    implementation, only the data term is compared.

    *s* may also be a 1-D array of candidate blocks; the result is then
    one ΔS per candidate, each bit-identical to the scalar call (every
    row sums the same cells in the same order).

    This is the oracle of :func:`merge_delta_cells`, which every engine
    scores merges with: the two agree to rounding, not bit for bit.
    """
    targets = np.atleast_1d(np.asarray(s, dtype=INDEX_DTYPE))
    moving = targets != r  # r == s merges nothing: ΔS = 0
    t = targets[moving]
    m = model.matrix
    d_out, d_in = model.deg_out, model.deg_in
    d_out_f = d_out.astype(FLOAT_DTYPE)
    b = model.num_blocks
    rows = np.arange(len(t))
    # Column cells outside rows r and s, in block order; the {r,s}×{r,s}
    # intersection is counted in the rows.
    others = np.delete(np.arange(b), r)
    j = np.arange(max(b - 2, 0))
    keep = np.where(j < (t - (t > r))[:, None], others[j], others[j + 1])

    old = (
        entropy_terms(m[r, :], np.full(b, d_out[r]), d_in).sum()
        + entropy_terms(m[t, :], d_out_f[t, None], d_in).sum(axis=1)
        + entropy_terms(m[keep, r], d_out[keep], d_in[r]).sum(axis=1)
        + entropy_terms(m[keep, t[:, None]], d_out[keep], d_in[t, None]).sum(axis=1)
    )

    # merged row/column: r's mass folds into s, including the r column.
    row_new = m[r, :] + m[t, :]
    row_new[rows, t] += row_new[rows, r]
    row_new[:, r] = 0
    col_new = m[:, r] + m[:, t].T
    col_new[rows, t] += col_new[rows, r]
    col_new[:, r] = 0
    d_in_new = np.tile(d_in.astype(FLOAT_DTYPE), (len(t), 1))
    d_in_new[rows, t] += d_in_new[rows, r]
    d_in_new[:, r] = 0

    new = (
        entropy_terms(row_new, (d_out_f[t] + d_out_f[r])[:, None], d_in_new).sum(axis=1)
        + entropy_terms(
            np.take_along_axis(col_new, keep, axis=1), d_out_f[keep],
            d_in_new[rows, t][:, None],
        ).sum(axis=1)
    )
    delta = np.zeros(len(targets), dtype=FLOAT_DTYPE)
    # MDL subtracts the log-posterior P, so ΔMDL = −ΔP = old − new.
    delta[moving] = old - new
    return float(delta[0]) if np.ndim(s) == 0 else delta


@dataclass(frozen=True)
class VertexNeighborhood:
    """A vertex's adjacency aggregated by block (self-loops separate)."""

    k_out_blocks: np.ndarray  # blocks of out-neighbours (unique)
    k_out_weights: np.ndarray
    k_in_blocks: np.ndarray
    k_in_weights: np.ndarray
    self_weight: int

    @property
    def d_out(self) -> int:
        return int(self.k_out_weights.sum()) + self.self_weight

    @property
    def d_in(self) -> int:
        return int(self.k_in_weights.sum()) + self.self_weight

    def k_out_to(self, block: int) -> int:
        hit = self.k_out_blocks == block
        return int(self.k_out_weights[hit].sum())

    def k_in_from(self, block: int) -> int:
        hit = self.k_in_blocks == block
        return int(self.k_in_weights[hit].sum())


def _move_new_rows_cols_dense(
    model: DenseBlockmodel, r: int, s: int, nbhd: VertexNeighborhood
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """New rows/cols r,s and degree vectors after moving one vertex."""
    m = model.matrix
    b = model.num_blocks
    k_out = np.zeros(b, dtype=FLOAT_DTYPE)
    k_out[nbhd.k_out_blocks] = nbhd.k_out_weights
    k_in = np.zeros(b, dtype=FLOAT_DTYPE)
    k_in[nbhd.k_in_blocks] = nbhd.k_in_weights
    self_w = nbhd.self_weight

    row_r = m[r, :] - k_out
    row_s = m[s, :] + k_out
    row_r[r] -= k_in[r] + self_w
    row_r[s] += k_in[r]
    row_s[r] -= k_in[s]
    row_s[s] += k_in[s] + self_w

    col_r = m[:, r] - k_in
    col_s = m[:, s] + k_in
    col_r[r] -= k_out[r] + self_w
    col_s[r] -= k_out[s]
    col_r[s] += k_out[r]
    col_s[s] += k_out[s] + self_w

    d_out_new = model.deg_out.astype(FLOAT_DTYPE).copy()
    d_in_new = model.deg_in.astype(FLOAT_DTYPE).copy()
    d_out_new[r] -= nbhd.d_out
    d_out_new[s] += nbhd.d_out
    d_in_new[r] -= nbhd.d_in
    d_in_new[s] += nbhd.d_in
    return row_r, row_s, col_r, col_s, d_out_new, d_in_new


def move_delta_dense(
    model: DenseBlockmodel, r: int, s: int, nbhd: VertexNeighborhood
) -> float:
    """Exact ΔS of moving one vertex from block *r* to block *s* (Eq. 7)."""
    if r == s:
        return 0.0
    m = model.matrix
    d_out, d_in = model.deg_out, model.deg_in
    b = model.num_blocks
    idx = np.arange(b)
    col_keep = (idx != r) & (idx != s)
    nkeep = int(col_keep.sum())

    old = (
        entropy_terms(m[r, :], np.full(b, d_out[r]), d_in).sum()
        + entropy_terms(m[s, :], np.full(b, d_out[s]), d_in).sum()
        + entropy_terms(m[col_keep, r], d_out[col_keep], np.full(nkeep, d_in[r])).sum()
        + entropy_terms(m[col_keep, s], d_out[col_keep], np.full(nkeep, d_in[s])).sum()
    )

    row_r, row_s, col_r, col_s, d_out_new, d_in_new = _move_new_rows_cols_dense(
        model, r, s, nbhd
    )
    new = (
        entropy_terms(row_r, np.full(b, d_out_new[r]), d_in_new).sum()
        + entropy_terms(row_s, np.full(b, d_out_new[s]), d_in_new).sum()
        + entropy_terms(col_r[col_keep], d_out_new[col_keep], np.full(nkeep, d_in_new[r])).sum()
        + entropy_terms(col_s[col_keep], d_out_new[col_keep], np.full(nkeep, d_in_new[s])).sum()
    )
    return float(old - new)


# ======================================================================
# batched device formulation
# ======================================================================
def precompute_block_term_sums(
    device: Device, bm: BlockmodelCSR, phase: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block row/column entropy-term sums (paper Eq. 5, Fig. 5a).

    ``R[b] = Σ_j term(b, j)`` over the out-CSR and ``C[b] = Σ_i term(i, b)``
    over the in-CSR, each via one segmented reduction over the blockmodel —
    the "segmented reduction across the current blockmodel" of §3.3.
    """
    def row_body() -> np.ndarray:
        lengths = bm.out_ptr[1:] - bm.out_ptr[:-1]
        rows = np.repeat(np.arange(bm.num_blocks, dtype=INDEX_DTYPE), lengths)
        return entropy_terms(bm.out_wgt, bm.deg_out[rows], bm.deg_in[bm.out_nbr])

    row_terms = device.execute(
        "entropy_terms_rows",
        KernelCost(max(bm.num_entries, 1), ops_per_item=8.0),
        row_body,
        phase,
    )
    r_sums = prim.segmented_reduce_sum(device, row_terms, bm.out_ptr, phase)

    def col_body() -> np.ndarray:
        lengths = bm.in_ptr[1:] - bm.in_ptr[:-1]
        cols = np.repeat(np.arange(bm.num_blocks, dtype=INDEX_DTYPE), lengths)
        return entropy_terms(bm.in_wgt, bm.deg_out[bm.in_nbr], bm.deg_in[cols])

    col_terms = device.execute(
        "entropy_terms_cols",
        KernelCost(max(bm.num_entries, 1), ops_per_item=8.0),
        col_body,
        phase,
    )
    c_sums = prim.segmented_reduce_sum(device, col_terms, bm.in_ptr, phase)
    return r_sums, c_sums


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x·ln x`` with ``0·ln 0 = 0`` (``x`` non-negative)."""
    return x * np.log(np.where(x > 0, x, 1.0))


def merge_delta_cells(
    bm: BlockmodelCSR, r: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """ΔS for a batch of merge proposals ``r[i] → s[i]`` (Eqs. 4-6).

    With the data term split as ``P = Σ_ij g(M_ij) − Σ_i g(d_out_i) −
    Σ_j g(d_in_j)``, ``g(x) = x·ln x`` (see :func:`move_delta_hastings`),
    merging blocks ``a`` and ``c`` adds rows ``a``, ``c`` and columns
    ``a``, ``c`` cell by cell, so ``ΔP`` is a sum of
    ``g(x + y) − g(x) − g(y)`` over

    * row ``a``'s out-entries ``x = M[a,t]`` with ``y = M[c,t]``,
    * column ``a``'s in-entries ``x = M[t,a]`` with ``y = M[t,c]``,

    for ``t ∉ {a,c}`` (the term is exactly 0 where ``y = 0``, so only
    cells nonzero in both rows or both columns count), plus the
    ``{a,c}×{a,c}`` corner folding into one cell, minus the same
    expression over the two degree pairs.  Per direction the shorter
    of the two rows (columns) is gathered and its partner looked up;
    the term is symmetric in ``x`` and ``y``, so this gives the same
    float as gathering ``a``'s.  Each pair costs
    O(min(deg_B(a), deg_B(c))) lookups — Peixoto's O(k) evaluation
    applied to merges.

    Every pair is evaluated in canonical order ``a = min(r,s)``,
    ``c = max(r,s)``, so ``r → s`` and ``s → r`` give the same float
    by construction.  Pairs with ``r == s`` get ΔS = 0.  This is the
    host body of :func:`merge_delta_batch`, and the CPU baselines call
    it once per merge round.
    """
    r = np.asarray(r, dtype=INDEX_DTYPE)
    s = np.asarray(s, dtype=INDEX_DTYPE)
    delta = np.zeros(len(r), dtype=FLOAT_DTYPE)
    mv = np.flatnonzero(r != s)
    a = np.minimum(r[mv], s[mv])
    c = np.maximum(r[mv], s[mv])
    pairs = np.arange(len(mv), dtype=INDEX_DTYPE)

    def gather(direction, ptr):
        # cells outside the intersection add exactly 0 and the term is
        # symmetric, so the shorter side gives the same float as row a
        short = np.where(ptr[c + 1] - ptr[c] < ptr[a + 1] - ptr[a], c, a)
        seg_ptr, t, x = bm.gather_rows(short, direction)
        own = np.repeat(pairs, seg_ptr[1:] - seg_ptr[:-1])
        keep = (t != a[own]) & (t != c[own])
        own = own[keep]
        return own, t[keep], x[keep], (a + c - short)[own]

    own_o, t_o, x_o, partner_o = gather("out", bm.out_ptr)
    own_i, t_i, x_i, partner_i = gather("in", bm.in_ptr)
    rows = np.concatenate((partner_o, t_i, a, a, c, c))
    cols = np.concatenate((t_o, partner_i, a, c, a, c))
    looked = bm.lookup(rows, cols).astype(FLOAT_DTYPE)
    x = np.concatenate((x_o, x_i)).astype(FLOAT_DTYPE)
    y, corner = looked[: len(x)], looked[len(x):].reshape(4, -1)
    d_out = bm.deg_out.astype(FLOAT_DTYPE)
    d_in = bm.deg_in.astype(FLOAT_DTYPE)
    deg = np.stack((d_out[a], d_out[c], d_in[a], d_in[c]))

    # A negative or infinite count means the blockmodel no longer matches
    # the graph; min() propagates NaN.
    for arr in (x, looked, deg):
        if arr.size and not (arr.min() >= 0 and arr.max() < np.inf):
            raise NumericalError(
                "merge_delta_cells: negative or non-finite blockmodel "
                "count — blockmodel counts are corrupt upstream of Eqs. 4-6"
            )
    cells = _xlogx(x + y) - (_xlogx(x) + _xlogx(y))
    seg = np.concatenate((own_o, own_i))
    # bincount over zero cells returns int64
    gain = np.bincount(seg, weights=cells, minlength=len(mv)).astype(FLOAT_DTYPE)
    gain += _xlogx(corner.sum(axis=0)) - _xlogx(corner).sum(axis=0)
    gain -= _xlogx(deg[0] + deg[1]) - _xlogx(deg[0]) - _xlogx(deg[1])
    gain -= _xlogx(deg[2] + deg[3]) - _xlogx(deg[2]) - _xlogx(deg[3])
    # MDL subtracts the log-posterior P, so ΔMDL = −ΔP.
    delta[mv] = -gain
    if delta.size and not np.isfinite(delta).all():
        raise NumericalError(
            "merge_delta_cells: non-finite ΔMDL — blockmodel counts are "
            "corrupt upstream of Eqs. 4-6"
        )
    return delta


def merge_delta_batch(
    device: Device,
    bm: BlockmodelCSR,
    r: np.ndarray,
    s: np.ndarray,
    phase: Optional[str] = None,
) -> np.ndarray:
    """:func:`merge_delta_cells` as one ``merge_delta_cells`` launch."""
    r = np.asarray(r, dtype=INDEX_DTYPE)
    s = np.asarray(s, dtype=INDEX_DTYPE)
    gathered = sum(
        int(np.minimum(ptr[r + 1] - ptr[r], ptr[s + 1] - ptr[s]).sum())
        for ptr in (bm.out_ptr, bm.in_ptr)
    )
    work = 2 * gathered + 4 * len(r)
    return device.execute(
        "merge_delta_cells",
        KernelCost(max(work, 1), ops_per_item=12.0),
        lambda: merge_delta_cells(bm, r, s),
        phase,
    )


# ----------------------------------------------------------------------
# batched vertex moves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MoveDeltaContext:
    """Per-mover aggregated adjacency for a batch of vertex moves.

    Built by :func:`repro.core.vertex_move.move_context`; segment
    ``i`` of the k-arrays holds mover ``i``'s out-(in-)edge weight per
    *unique* neighbouring block, blocks ascending, self-loops excluded
    and carried in :attr:`self_w`.  :attr:`kin_at_out` holds, per
    out-entry, the mover's in-weight at the same block (0 where it has
    none), and :attr:`kout_at_in` the reverse.
    """

    r: np.ndarray  # current block per mover
    s: np.ndarray  # proposed block per mover
    kout_ptr: np.ndarray
    kout_blk: np.ndarray
    kout_w: np.ndarray
    kin_ptr: np.ndarray
    kin_blk: np.ndarray
    kin_w: np.ndarray
    kin_at_out: np.ndarray
    kout_at_in: np.ndarray
    self_w: np.ndarray
    d_out_v: np.ndarray  # total out-degree of each mover (incl. self)
    d_in_v: np.ndarray

    @property
    def num_movers(self) -> int:
        return len(self.r)


def move_delta_hastings(
    bm: Union[BlockmodelCSR, DenseBlockmodel], ctx: MoveDeltaContext
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ΔS, H)`` per mover for a batch of vertex moves, in one pass.

    ΔS is paper Eq. 7.  The data term splits as ``P = Σ_ij g(M_ij) −
    Σ_i g(d_out_i) − Σ_j g(d_in_j)`` with ``g(x) = x·ln x``, so a move's
    ΔS needs only the cells it changes plus the degree terms at ``r``
    and ``s`` — the O(k) move evaluation of Peixoto's DC-SBM MCMC.  Per
    mover those cells are ``M[r,t]``/``M[s,t]`` for every out-block
    ``t ∉ {r,s}``, ``M[t,r]``/``M[t,s]`` for every in-block ``t ∉
    {r,s}`` and the four corners ``{r,s}×{r,s}``.

    H is the Hastings correction ``p_backward / p_forward`` of
    :mod:`repro.core.mh`, summed over the union of the mover's out- and
    in-entries (self-loop weight excluded, as in the reference
    implementation); the backward term reads the post-move cells
    ``M'[r,t]``, ``M'[t,r]`` and degrees ``d'[t]``.

    Both come from one lookup: ``M[r,t]``, ``M[s,t]``, ``M[t,r]`` and
    ``M[t,s]`` for every (mover, t) entry, and the four corners per
    mover; ΔS takes its subset of those cells.  Movers with ``r == s``
    get ΔS = 0 and H = 1, and so does a mover with no non-self
    neighbours.  All movers are evaluated against the same frozen
    blockmodel — the asynchronous-Gibbs semantics of the vertex-move
    phase.

    This is the host body of :func:`move_delta_batch`; it needs only
    ``bm.lookup``, the degree arrays and ``bm.num_blocks``, so the CSR
    blockmodel and the CPU baselines' :class:`DenseBlockmodel` share it.
    """
    r, s = ctx.r, ctx.s
    p = ctx.num_movers
    b = bm.num_blocks
    moving = r != s
    movers = np.arange(p, dtype=INDEX_DTYPE)
    out_seg = np.repeat(movers, ctx.kout_ptr[1:] - ctx.kout_ptr[:-1])
    in_seg = np.repeat(movers, ctx.kin_ptr[1:] - ctx.kin_ptr[:-1])
    kout_w = ctx.kout_w.astype(FLOAT_DTYPE)
    kin_w = ctx.kin_w.astype(FLOAT_DTYPE)

    # each mover's k-arrays hold a block at most once, so a masked
    # bincount reads off its weight toward r and toward s
    def weight_to(seg, blk, w, target):
        hit = blk == target[seg]
        return np.bincount(seg[hit], weights=w[hit], minlength=p)

    kout_r = weight_to(out_seg, ctx.kout_blk, kout_w, r)
    kout_s = weight_to(out_seg, ctx.kout_blk, kout_w, s)
    kin_r = weight_to(in_seg, ctx.kin_blk, kin_w, r)
    kin_s = weight_to(in_seg, ctx.kin_blk, kin_w, s)
    self_w = ctx.self_w.astype(FLOAT_DTYPE)

    # every entry of a moving mover, out-entries first: neighbour block
    # t, weight w, and the mover's k_out[t] and k_in[t]
    keep_o = moving[out_seg]
    keep_i = moving[in_seg]
    n_out = int(keep_o.sum())
    seg = np.concatenate((out_seg[keep_o], in_seg[keep_i]))
    t = np.concatenate((ctx.kout_blk[keep_o], ctx.kin_blk[keep_i]))
    w = np.concatenate((kout_w[keep_o], kin_w[keep_i]))
    k_out_t = np.concatenate((w[:n_out], ctx.kout_at_in[keep_i]))
    k_in_t = np.concatenate((ctx.kin_at_out[keep_o], w[n_out:]))
    r_e, s_e = r[seg], s[seg]
    n = len(t)
    mv = np.flatnonzero(moving)
    rm, sm = r[mv], s[mv]

    rows = np.concatenate((r_e, s_e, t, t, rm, rm, sm, sm))
    cols = np.concatenate((t, t, r_e, s_e, rm, sm, rm, sm))
    looked = bm.lookup(rows, cols).astype(FLOAT_DTYPE)
    m_rt, m_st, m_tr, m_ts = looked[: 4 * n].reshape(4, n)

    # ΔS: the off-corner out-entries' row cells and in-entries' column
    # cells, then the corners (r,r), (r,s), (s,r), (s,s) shifted as in
    # _move_new_rows_cols_dense
    off = (t != r_e) & (t != s_e)
    so = np.flatnonzero(off[:n_out])
    si = n_out + np.flatnonzero(off[n_out:])
    old = np.concatenate((m_rt[so], m_st[so], m_tr[si], m_ts[si], looked[4 * n:]))
    shift = np.concatenate((
        -w[so], w[so], -w[si], w[si],
        -(kout_r + kin_r + self_w)[mv],
        (kin_r - kout_s)[mv],
        (kout_r - kin_s)[mv],
        (kout_s + kin_s + self_w)[mv],
    ))
    new = old + shift
    cell_seg = np.concatenate((seg[so], seg[so], seg[si], seg[si], mv, mv, mv, mv))

    d_out = bm.deg_out.astype(FLOAT_DTYPE)
    d_in = bm.deg_in.astype(FLOAT_DTYPE)
    d_out_v = ctx.d_out_v[mv].astype(FLOAT_DTYPE)
    d_in_v = ctx.d_in_v[mv].astype(FLOAT_DTYPE)
    deg_old = np.concatenate((d_out[rm], d_out[sm], d_in[rm], d_in[sm]))
    deg_new = deg_old + np.concatenate((-d_out_v, d_out_v, -d_in_v, d_in_v))

    # A negative count (old, or driven negative by the move) means the
    # blockmodel no longer matches the graph; min() propagates NaN.
    for arr in (old, new, deg_old, deg_new):
        if arr.size and not arr.min() >= 0:
            raise NumericalError(
                "move_delta_hastings: negative or non-finite blockmodel "
                "count — blockmodel counts are corrupt upstream of Eq. 7"
            )
    cells = _xlogx(old) - _xlogx(new)
    # bincount over zero cells (no mover moves) returns int64
    delta = np.bincount(cell_seg, weights=cells, minlength=p).astype(FLOAT_DTYPE)
    delta[mv] -= (_xlogx(deg_old) - _xlogx(deg_new)).reshape(4, -1).sum(axis=0)
    if delta.size and not np.isfinite(delta).all():
        raise NumericalError(
            "move_delta_hastings: non-finite ΔMDL — blockmodel counts are "
            "corrupt upstream of Eq. 7"
        )

    # H: forward over the current blockmodel, backward over the post-move
    # entries M'[r,t] = M[r,t] − k_out[t] + [t=r](−k_in[r] − self) +
    # [t=s] k_in[r], M'[t,r] likewise with out and in swapped
    deg_tot = (bm.deg_out + bm.deg_in).astype(FLOAT_DTYPE)
    fwd_terms = w * (m_ts + m_st + 1.0) / (deg_tot[t] + b)
    p_fwd = np.bincount(seg, weights=fwd_terms, minlength=p)
    is_r = t == r_e
    is_s = t == s_e
    m_rt_new = (
        m_rt
        - k_out_t
        + np.where(is_r, -(kin_r[seg] + self_w[seg]), 0.0)
        + np.where(is_s, kin_r[seg], 0.0)
    )
    m_tr_new = (
        m_tr
        - k_in_t
        + np.where(is_r, -(kout_r[seg] + self_w[seg]), 0.0)
        + np.where(is_s, kout_r[seg], 0.0)
    )
    d_v_tot = (ctx.d_out_v + ctx.d_in_v).astype(FLOAT_DTYPE)
    deg_new_t = (
        deg_tot[t]
        + np.where(is_s, d_v_tot[seg], 0.0)
        - np.where(is_r, d_v_tot[seg], 0.0)
    )
    bwd_terms = w * (m_tr_new + m_rt_new + 1.0) / (deg_new_t + b)
    p_bwd = np.bincount(seg, weights=bwd_terms, minlength=p)
    hastings = np.ones(p, dtype=FLOAT_DTYPE)
    valid = (p_fwd > 0) & (p_bwd > 0)
    hastings[valid] = p_bwd[valid] / p_fwd[valid]
    return delta, hastings


def move_delta_batch(
    device: Device,
    bm: BlockmodelCSR,
    ctx: MoveDeltaContext,
    phase: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`move_delta_hastings` as one ``move_delta_hastings`` launch."""
    work = 4 * (len(ctx.kout_blk) + len(ctx.kin_blk)) + 4 * ctx.num_movers
    return device.execute(
        "move_delta_hastings",
        KernelCost(max(work, 1), ops_per_item=12.0),
        lambda: move_delta_hastings(bm, ctx),
        phase,
    )
