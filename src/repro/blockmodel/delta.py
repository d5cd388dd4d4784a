"""ΔMDL computation (paper Eqs. 3-7, Figs. 5).

A proposal (block merge or vertex move) only perturbs rows ``r``/``s`` and
columns ``r``/``s`` of the blockmodel, so the MDL change is the difference
of the data-term sums over those rows and columns before and after.  The
2x2 intersection ``{r,s} × {r,s}`` is counted once by including it in the
row sums and excluding it from the column sums — the convention of the
GraphChallenge reference implementation.

Two implementations live here:

* ``*_dense`` — straightforward formulas over :class:`DenseBlockmodel`:
  ``merge_delta_dense`` scores the CPU baselines' merges, and all are
  the ground truth in property tests;
* ``*_batch`` — the GSAP formulation on the simulated device.  A merge
  gathers each proposal's affected rows from the CSR blockmodel, appends
  the delta entries, merges them with a segmented sort + reduce-by-key
  (the per-thread "serial merge" of paper Fig. 5 executed as one batched
  kernel) and sums the entropy terms with segmented reductions.  A
  vertex move changes only about ``deg(v)`` cells, so it evaluates the
  data term's split ``Σ g(M) − Σ g(d_out) − Σ g(d_in)`` over just those
  cells and the degrees of ``r`` and ``s``, in one launch.  Its host
  body, :func:`move_delta_cells`, also scores the CPU baselines'
  :class:`DenseBlockmodel` replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

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
    "move_delta_batch",
    "move_delta_cells",
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
    row sums the same cells in the same order).  The CPU baselines score
    all proposals of one block this way.
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


def _pairwise_intersection_terms(
    bm: BlockmodelCSR, r: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Σ of old entropy terms over the 2x2 intersection {r,s}×{r,s}."""
    d_out = bm.deg_out.astype(FLOAT_DTYPE)
    d_in = bm.deg_in.astype(FLOAT_DTYPE)
    total = np.zeros(len(r), dtype=FLOAT_DTYPE)
    for i_sel, j_sel in ((r, r), (r, s), (s, r), (s, s)):
        w = bm.lookup(i_sel, j_sel).astype(FLOAT_DTYPE)
        total += entropy_terms(w, d_out[i_sel], d_in[j_sel])
    return total


def _concat_segment_sources(
    num_segments: int,
    sources: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interleave several per-segment (ptr, keys, vals) sources.

    Output segment ``p`` is the concatenation of segment ``p`` of every
    source, in order.  Returns ``(out_ptr, out_keys, out_vals)``.
    """
    lengths = [ptr[1:] - ptr[:-1] for ptr, _, _ in sources]
    total_lengths = np.sum(lengths, axis=0) if sources else np.zeros(num_segments, dtype=INDEX_DTYPE)
    out_ptr = np.concatenate(([0], np.cumsum(total_lengths))).astype(INDEX_DTYPE)
    total = int(out_ptr[-1])
    out_keys = np.empty(total, dtype=INDEX_DTYPE)
    out_vals = np.empty(total, dtype=FLOAT_DTYPE)
    prior = np.zeros(num_segments, dtype=INDEX_DTYPE)
    for (ptr, keys, vals), src_len in zip(sources, lengths):
        n = int(src_len.sum())
        if n == 0:
            continue
        base = out_ptr[:-1] + prior
        seg_start = np.concatenate(([0], np.cumsum(src_len)))[:-1]
        inner = np.arange(n, dtype=INDEX_DTYPE) - np.repeat(seg_start, src_len)
        pos = np.repeat(base, src_len) + inner
        out_keys[pos] = keys
        out_vals[pos] = vals
        prior = prior + src_len
    return out_ptr, out_keys, out_vals


def _merge_and_sum_terms(
    device: Device,
    seg_ptr: np.ndarray,
    keys: np.ndarray,
    vals: np.ndarray,
    d_src_per_seg: np.ndarray,
    d_in_base: np.ndarray,
    r: np.ndarray,
    s: np.ndarray,
    d_in_shift: np.ndarray,
    exclude_rs: bool,
    phase: Optional[str],
    transpose: bool = False,
    d_out_shift: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Merge duplicate keys per segment, evaluate entropy terms, sum.

    Parameters
    ----------
    d_src_per_seg:
        The fixed degree of the row (or column when *transpose*) per
        segment — e.g. the new out-degree of the row being evaluated.
    d_in_base:
        Base per-block degree vector used for the varying side.
    d_in_shift:
        Per-segment amount added at key ``s`` and removed at key ``r``
        on the varying side (0 for merges, where the remap to ``s``
        already folds the degrees).
    exclude_rs:
        Drop entries whose key is ``r`` or ``s`` of the segment (used by
        column sums so the intersection is counted once).
    transpose:
        When True the varying side is the *source* degree (column sums).
    """
    num_segments = len(seg_ptr) - 1
    seg_ids = prim.segment_ids_from_ptr(device, seg_ptr, phase)
    seg_ids, keys, vals = prim.segmented_sort(device, seg_ids, keys, vals, phase)
    out_seg, out_keys, out_vals = prim.segmented_reduce_by_key(
        device, seg_ids, keys, vals, phase
    )

    def body() -> np.ndarray:
        d_fixed = d_src_per_seg[out_seg]
        d_var = d_in_base[out_keys].astype(FLOAT_DTYPE)
        shift = d_in_shift[out_seg]
        d_var = d_var + np.where(out_keys == s[out_seg], shift, 0.0)
        d_var = d_var - np.where(out_keys == r[out_seg], shift, 0.0)
        if transpose:
            terms = entropy_terms(out_vals, d_var, d_fixed)
        else:
            terms = entropy_terms(out_vals, d_fixed, d_var)
        if exclude_rs:
            keep = (out_keys != r[out_seg]) & (out_keys != s[out_seg])
            terms = terms * keep
        return np.bincount(out_seg, weights=terms, minlength=num_segments)

    cost = KernelCost(max(len(out_keys), 1), ops_per_item=10.0)
    return device.execute("delta_terms_sum", cost, body, phase)


def merge_delta_batch(
    device: Device,
    bm: BlockmodelCSR,
    r: np.ndarray,
    s: np.ndarray,
    term_sums: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    phase: Optional[str] = None,
) -> np.ndarray:
    """ΔS for a batch of merge proposals ``r[i] → s[i]`` (Eqs. 4-6).

    Pairs with ``r == s`` get ΔS = 0.  *term_sums* is the output of
    :func:`precompute_block_term_sums` (computed here if omitted).
    """
    r = np.asarray(r, dtype=INDEX_DTYPE)
    s = np.asarray(s, dtype=INDEX_DTYPE)
    if term_sums is None:
        term_sums = precompute_block_term_sums(device, bm, phase)
    r_sums, c_sums = term_sums

    # old affected-entry sum: rows r,s fully + cols r,s minus intersection
    old = (
        r_sums[r] + r_sums[s] + c_sums[r] + c_sums[s]
        - _pairwise_intersection_terms(bm, r, s)
    )

    num_pairs = len(r)
    d_out = bm.deg_out.astype(FLOAT_DTYPE)
    d_in = bm.deg_in.astype(FLOAT_DTYPE)

    # Fold r's degrees into s on the varying side via a remapped base:
    # after the merge every reference to r becomes s, so we remap gathered
    # keys r→s and use per-segment folded degrees at s.
    def gather_and_remap(direction: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        ptr_r, keys_r, vals_r = bm.gather_rows(r, direction)
        ptr_s, keys_s, vals_s = bm.gather_rows(s, direction)
        seg_ptr, keys, vals = _concat_segment_sources(
            num_pairs,
            [
                (ptr_r, keys_r, vals_r.astype(FLOAT_DTYPE)),
                (ptr_s, keys_s, vals_s.astype(FLOAT_DTYPE)),
            ],
        )
        seg_of = np.repeat(np.arange(num_pairs, dtype=INDEX_DTYPE),
                           seg_ptr[1:] - seg_ptr[:-1])
        keys = np.where(keys == r[seg_of], s[seg_of], keys)
        return seg_ptr, keys, vals

    cost = KernelCost(max(num_pairs, 1), ops_per_item=4.0)

    # --- merged row s' ---------------------------------------------------
    seg_ptr, keys, vals = device.execute(
        "gather_merge_rows", cost, lambda: gather_and_remap("out"), phase
    )
    d_in_shift = d_in[r]  # at key s the in-degree is d_in[r] + d_in[s]
    t_row_new = _merge_and_sum_terms(
        device,
        seg_ptr,
        keys,
        vals,
        d_src_per_seg=d_out[r] + d_out[s],
        d_in_base=bm.deg_in,
        r=r,
        s=s,
        d_in_shift=d_in_shift,
        exclude_rs=False,
        phase=phase,
    )

    # --- merged column s' (excluding the merged row's entry) -------------
    seg_ptr_c, keys_c, vals_c = device.execute(
        "gather_merge_cols", cost, lambda: gather_and_remap("in"), phase
    )
    d_out_shift = d_out[r]
    t_col_new = _merge_and_sum_terms(
        device,
        seg_ptr_c,
        keys_c,
        vals_c,
        d_src_per_seg=d_in[r] + d_in[s],
        d_in_base=bm.deg_out,
        r=r,
        s=s,
        d_in_shift=d_out_shift,
        exclude_rs=True,
        phase=phase,
        transpose=True,
    )

    delta = old - (t_row_new + t_col_new)
    delta[r == s] = 0.0
    delta = np.asarray(delta, dtype=FLOAT_DTYPE)
    if delta.size and not np.isfinite(delta).all():
        raise NumericalError(
            "merge_delta_batch: non-finite ΔMDL — blockmodel counts are "
            "corrupt upstream of Eqs. 4-6"
        )
    return delta


# ----------------------------------------------------------------------
# batched vertex moves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MoveDeltaContext:
    """Per-mover aggregated adjacency for a batch of vertex moves.

    Built by :func:`repro.core.vertex_move.move_context`; segment
    ``i`` of the k-arrays holds mover ``i``'s out-(in-)edge weight per
    *unique* neighbouring block, self-loops excluded and carried in
    :attr:`self_w`.
    """

    r: np.ndarray  # current block per mover
    s: np.ndarray  # proposed block per mover
    kout_ptr: np.ndarray
    kout_blk: np.ndarray
    kout_w: np.ndarray
    kin_ptr: np.ndarray
    kin_blk: np.ndarray
    kin_w: np.ndarray
    self_w: np.ndarray
    d_out_v: np.ndarray  # total out-degree of each mover (incl. self)
    d_in_v: np.ndarray

    @property
    def num_movers(self) -> int:
        return len(self.r)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x·ln x`` with ``0·ln 0 = 0`` (``x`` non-negative)."""
    return x * np.log(np.where(x > 0, x, 1.0))


def move_delta_cells(
    bm: Union[BlockmodelCSR, DenseBlockmodel], ctx: MoveDeltaContext
) -> np.ndarray:
    """ΔS for a batch of vertex moves (paper Eq. 7), one value per mover.

    The data term splits as ``P = Σ_ij g(M_ij) − Σ_i g(d_out_i) −
    Σ_j g(d_in_j)`` with ``g(x) = x·ln x``, so a move's ΔS needs only
    the cells it changes plus the degree terms at ``r`` and ``s`` — the
    O(k) move evaluation of Peixoto's DC-SBM MCMC.  Per mover those
    cells are ``M[r,t]``/``M[s,t]`` for every out-block ``t ∉ {r,s}``,
    ``M[t,r]``/``M[t,s]`` for every in-block ``t ∉ {r,s}`` and the four
    corners ``{r,s}×{r,s}``; all of them are looked up and summed in one
    pass.  Movers with ``r == s`` get ΔS = 0.  All movers are evaluated
    against the same frozen blockmodel — the asynchronous-Gibbs
    semantics of the vertex-move phase.

    This is the host body of :func:`move_delta_batch`; it needs only
    ``bm.lookup`` and the degree arrays, so the CSR blockmodel and the
    CPU baselines' :class:`DenseBlockmodel` share it.
    """
    r, s = ctx.r, ctx.s
    p = ctx.num_movers
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

    def off_corner(seg, blk):
        return moving[seg] & (blk != r[seg]) & (blk != s[seg])

    keep_o = off_corner(out_seg, ctx.kout_blk)
    so, to, wo = out_seg[keep_o], ctx.kout_blk[keep_o], kout_w[keep_o]
    keep_i = off_corner(in_seg, ctx.kin_blk)
    si, ti, wi = in_seg[keep_i], ctx.kin_blk[keep_i], kin_w[keep_i]
    mv = np.flatnonzero(moving)
    rm, sm = r[mv], s[mv]
    # corner shifts: _move_new_rows_cols_dense at (r,r), (r,s), (s,r), (s,s)
    rows = np.concatenate((r[so], s[so], ti, ti, rm, rm, sm, sm))
    cols = np.concatenate((to, to, r[si], s[si], rm, sm, rm, sm))
    shift = np.concatenate((
        -wo, wo, -wi, wi,
        -(kout_r + kin_r + self_w)[mv],
        (kin_r - kout_s)[mv],
        (kout_r - kin_s)[mv],
        (kout_s + kin_s + self_w)[mv],
    ))
    seg = np.concatenate((so, so, si, si, mv, mv, mv, mv))
    old = bm.lookup(rows, cols).astype(FLOAT_DTYPE)
    new = old + shift

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
                "move_delta_cells: negative or non-finite blockmodel "
                "count — blockmodel counts are corrupt upstream of Eq. 7"
            )
    cells = _xlogx(old) - _xlogx(new)
    # bincount over zero cells (no mover moves) returns int64
    delta = np.bincount(seg, weights=cells, minlength=p).astype(FLOAT_DTYPE)
    delta[mv] -= (_xlogx(deg_old) - _xlogx(deg_new)).reshape(4, -1).sum(axis=0)
    if delta.size and not np.isfinite(delta).all():
        raise NumericalError(
            "move_delta_cells: non-finite ΔMDL — blockmodel counts are "
            "corrupt upstream of Eq. 7"
        )
    return delta


def move_delta_batch(
    device: Device,
    bm: BlockmodelCSR,
    ctx: MoveDeltaContext,
    phase: Optional[str] = None,
) -> np.ndarray:
    """:func:`move_delta_cells` as one ``move_delta_cells`` launch."""
    work = 2 * (len(ctx.kout_blk) + len(ctx.kin_blk)) + 4 * ctx.num_movers
    return device.execute(
        "move_delta_cells",
        KernelCost(max(work, 1), ops_per_item=12.0),
        lambda: move_delta_cells(bm, ctx),
        phase,
    )
