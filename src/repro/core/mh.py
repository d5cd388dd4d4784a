"""Metropolis-Hastings acceptance with Hastings correction.

A proposed vertex move from block ``r`` to ``s`` is accepted with
probability

.. math::

    p_{accept} = \min\!\left(1,\;
        e^{-\beta\,\Delta S}\,\frac{p_{s \to r}}{p_{r \to s}}\right)

where the forward/backward proposal probabilities follow the reference
implementation's form: for each block ``t`` adjacent to the mover with
edge weight ``w_t``,

.. math::

    p_{r \to s} \propto \sum_t \frac{w_t\,(M_{t,s} + M_{s,t} + 1)}
                                    {d_t + B},

and the backward term uses the post-move blockmodel entries and degrees.
The ``+1`` keeps the correction defined when ``s`` has no edges to ``t``
(it corresponds to the uniform-random branch of the proposal mixture).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.delta import MoveDeltaContext
from ..blockmodel.dense import DenseBlockmodel
from ..errors import NumericalError
from ..gpusim.device import Device, KernelCost
from ..gpusim.primitives import composite_keys
from ..types import FLOAT_DTYPE, INDEX_DTYPE


def _segment_sum(
    seg_of: np.ndarray, values: np.ndarray, num_segments: int
) -> np.ndarray:
    return np.bincount(seg_of, weights=values, minlength=num_segments)


def hastings_ratio(
    bm: Union[BlockmodelCSR, DenseBlockmodel], ctx: MoveDeltaContext
) -> np.ndarray:
    """``p_backward / p_forward`` per mover, vectorized over the batch.

    Neighbour blocks ``t`` and weights ``w_t`` are the union of the
    mover's aggregated out- and in-adjacency (``ctx.kout_*``/``ctx.kin_*``);
    self-loop weight is excluded, as in the reference implementation.
    This is the host body of :func:`hastings_correction_batch`; it needs
    only ``bm.lookup``, the degree arrays and ``bm.num_blocks``, so the
    CSR blockmodel and :class:`DenseBlockmodel` share it.
    """
    p = ctx.num_movers
    b = bm.num_blocks
    r, s = ctx.r, ctx.s

    kout_len = ctx.kout_ptr[1:] - ctx.kout_ptr[:-1]
    kin_len = ctx.kin_ptr[1:] - ctx.kin_ptr[:-1]
    seg_of = np.concatenate(
        [
            np.repeat(np.arange(p, dtype=INDEX_DTYPE), kout_len),
            np.repeat(np.arange(p, dtype=INDEX_DTYPE), kin_len),
        ]
    )
    t = np.concatenate([ctx.kout_blk, ctx.kin_blk]).astype(INDEX_DTYPE)
    w = np.concatenate([ctx.kout_w, ctx.kin_w]).astype(FLOAT_DTYPE)
    if len(t) == 0:
        return np.ones(p, dtype=FLOAT_DTYPE)

    s_of = s[seg_of]
    r_of = r[seg_of]
    deg_tot = (bm.deg_out + bm.deg_in).astype(FLOAT_DTYPE)

    # forward: current blockmodel
    m_ts = bm.lookup(t, s_of).astype(FLOAT_DTYPE)
    m_st = bm.lookup(s_of, t).astype(FLOAT_DTYPE)
    fwd_terms = w * (m_ts + m_st + 1.0) / (deg_tot[t] + b)
    p_fwd = _segment_sum(seg_of, fwd_terms, p)

    # backward: post-move entries M'[t,r], M'[r,t] and degrees d'[t].
    # M'[r,t] = M[r,t] - k_out[t] + [t==r](-k_in_r - self) + [t==s](+k_in_r)
    # M'[t,r] = M[t,r] - k_in[t] + [t==r](-k_out_r - self) + [t==s](+k_out_r)
    m_rt = bm.lookup(r_of, t).astype(FLOAT_DTYPE)
    m_tr = bm.lookup(t, r_of).astype(FLOAT_DTYPE)

    # per-mover aggregated weights toward r/s and the k vectors per entry
    def value_at(ptr, blk, wv, target):
        seg = np.repeat(np.arange(p, dtype=INDEX_DTYPE), ptr[1:] - ptr[:-1])
        hit = blk == target[seg]
        return np.bincount(seg[hit], weights=wv[hit].astype(FLOAT_DTYPE), minlength=p)

    kout_r = value_at(ctx.kout_ptr, ctx.kout_blk, ctx.kout_w, r)
    kin_r = value_at(ctx.kin_ptr, ctx.kin_blk, ctx.kin_w, r)
    self_w = ctx.self_w.astype(FLOAT_DTYPE)

    # k_out[t] / k_in[t] for each (mover, t) entry: the concatenation
    # already enumerates each mover's k entries, so the out half knows
    # k_out[t] directly and the in half knows k_in[t]; the opposite
    # component needs a lookup, done per entry with a masked sum.
    n_out = len(ctx.kout_blk)
    k_out_at_t = np.zeros(len(t), dtype=FLOAT_DTYPE)
    k_in_at_t = np.zeros(len(t), dtype=FLOAT_DTYPE)
    k_out_at_t[:n_out] = ctx.kout_w
    k_in_at_t[n_out:] = ctx.kin_w
    # cross lookups: for out-half entries, k_in at the same t; for
    # in-half entries, k_out at the same t.  Composite-key join; the
    # k-arrays come out of move_context strictly increasing in
    # (mover, block), so their composite keys need no sort.
    def cross_fill(dst, src_ptr, src_blk, src_w, half_slice):
        seg_half = seg_of[half_slice]
        t_half = t[half_slice]
        if len(t_half) == 0:
            return
        src_seg = np.repeat(
            np.arange(p, dtype=INDEX_DTYPE), src_ptr[1:] - src_ptr[:-1]
        )
        sorted_keys = composite_keys(src_seg, src_blk, (0, b))
        sorted_w = src_w.astype(FLOAT_DTYPE)
        want = composite_keys(seg_half, t_half, (0, b))
        pos = np.searchsorted(sorted_keys, want)
        ok = pos < len(sorted_keys)
        hit = ok.copy()
        hit[ok] = sorted_keys[pos[ok]] == want[ok]
        vals = np.zeros(len(t_half), dtype=FLOAT_DTYPE)
        vals[hit] = sorted_w[pos[hit]]
        dst[half_slice] = np.where(hit, vals, dst[half_slice])

    cross_fill(k_in_at_t, ctx.kin_ptr, ctx.kin_blk, ctx.kin_w, slice(0, n_out))
    cross_fill(k_out_at_t, ctx.kout_ptr, ctx.kout_blk, ctx.kout_w, slice(n_out, len(t)))

    is_r = t == r_of
    is_s = t == s_of
    m_rt_new = (
        m_rt
        - k_out_at_t
        + np.where(is_r, -(kin_r[seg_of] + self_w[seg_of]), 0.0)
        + np.where(is_s, kin_r[seg_of], 0.0)
    )
    m_tr_new = (
        m_tr
        - k_in_at_t
        + np.where(is_r, -(kout_r[seg_of] + self_w[seg_of]), 0.0)
        + np.where(is_s, kout_r[seg_of], 0.0)
    )
    d_v_tot = (ctx.d_out_v + ctx.d_in_v).astype(FLOAT_DTYPE)
    deg_new_t = (
        deg_tot[t]
        + np.where(is_s, d_v_tot[seg_of], 0.0)
        - np.where(is_r, d_v_tot[seg_of], 0.0)
    )
    bwd_terms = w * (m_tr_new + m_rt_new + 1.0) / (deg_new_t + b)
    p_bwd = _segment_sum(seg_of, bwd_terms, p)

    ratio = np.ones(p, dtype=FLOAT_DTYPE)
    valid = (p_fwd > 0) & (p_bwd > 0)
    ratio[valid] = p_bwd[valid] / p_fwd[valid]
    return ratio


def hastings_correction_batch(
    device: Device,
    bm: BlockmodelCSR,
    ctx: MoveDeltaContext,
    phase: str = "vertex_move",
) -> np.ndarray:
    """:func:`hastings_ratio` as one ``hastings_correction`` launch."""
    work = len(ctx.kout_blk) + len(ctx.kin_blk)
    return device.execute(
        "hastings_correction",
        KernelCost(work_items=max(work, 1), ops_per_item=12.0),
        lambda: hastings_ratio(bm, ctx),
        phase,
    )


def accept_moves(
    device: Device,
    delta: np.ndarray,
    hastings: np.ndarray,
    beta: float,
    rng: np.random.Generator,
    phase: str = "vertex_move",
) -> np.ndarray:
    """Vectorized accept/reject: ``u < min(1, exp(-β ΔS) · H)``."""
    # Guard BEFORE the RNG draw: a NaN ΔS or Hastings ratio would make
    # every comparison False (silent all-reject) while still consuming
    # random numbers, desynchronizing the run from its fault-free twin.
    if len(delta) and not (
        np.isfinite(delta).all() and np.isfinite(hastings).all()
    ):
        raise NumericalError(
            "accept_moves: non-finite ΔS or Hastings correction reached "
            "the MH acceptance step"
        )

    def kernel() -> np.ndarray:
        # exp underflows harmlessly to 0 for very bad moves; clip the
        # exponent to avoid overflow warnings for very good ones.
        exponent = np.clip(-beta * delta, -700.0, 700.0)
        p_accept = np.minimum(1.0, np.exp(exponent) * hastings)
        return rng.random(len(delta)) < p_accept

    return device.execute(
        "mh_accept",
        KernelCost(work_items=max(len(delta), 1), ops_per_item=6.0),
        kernel,
        phase,
    )
