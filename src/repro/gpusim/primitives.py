"""Thrust-style data-parallel primitives on the simulated device.

These are the building blocks GSAP composes its kernels from (paper
Algorithm 2 names them directly): ``sort_by_key``, segmented sort,
exclusive scan, segmented reduction, and reduce-by-key.  Every primitive
routes through :meth:`Device.execute` so the profiler and the simulated
clock see one launch with a cost proportional to the data touched.

All primitives take and return plain ``numpy`` arrays — device residence
is by convention, and no host<->device copy is charged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import DeviceError
from ..types import INDEX_DTYPE
from .device import Device, KernelCost

_LOG2_SORT_FACTOR = 20.0  # ops/item charged for a device radix/merge sort


def _cost_linear(n: int, ops: float = 1.0, words: int = 2) -> KernelCost:
    return KernelCost(work_items=max(n, 1), ops_per_item=ops, bytes_moved=8 * words * max(n, 1))


def exclusive_scan(
    device: Device, values: np.ndarray, phase: Optional[str] = None
) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``, ``len = n + 1``.

    Returns ``n + 1`` entries so the result can serve directly as a CSR
    pointer array (the final entry is the total).
    """
    values = np.asarray(values)

    def body() -> np.ndarray:
        out = np.empty(len(values) + 1, dtype=values.dtype)
        out[0] = 0
        np.cumsum(values, out=out[1:])
        return out

    return device.execute("exclusive_scan", _cost_linear(len(values), 2.0), body, phase)


def gather(
    device: Device, source: np.ndarray, indices: np.ndarray, phase: Optional[str] = None
) -> np.ndarray:
    """Random-access gather ``out[i] = source[indices[i]]``."""
    source = np.asarray(source)
    indices = np.asarray(indices)
    return device.execute(
        "gather",
        _cost_linear(len(indices), 1.0, words=3),
        lambda: source[indices],
        phase,
    )


def sort_by_key(
    device: Device,
    keys: np.ndarray,
    values: np.ndarray,
    phase: Optional[str] = None,
    *,
    stable: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``(keys, values)`` pairs by key (thrust::sort_by_key).

    Equal keys keep their input order unless *stable* is False, which
    lets them come out in any order — for unique keys, or for values
    that are only summed afterwards as integers, where the order cannot
    change a result and the unstable sort is several times faster.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape[: keys.ndim]:
        raise DeviceError("sort_by_key: keys and values must align on axis 0")

    def body() -> Tuple[np.ndarray, np.ndarray]:
        if stable:
            order = np.argsort(keys, kind="stable")
            return keys[order], values[order]
        order, ordered = sort_keys(keys)
        return ordered, values[order]

    return device.execute(
        "sort_by_key", _cost_linear(len(keys), _LOG2_SORT_FACTOR, 4), body, phase
    )


def sort_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for integer *keys*, equal keys in any order.

    Packs each key above its position into one int64 and sorts those
    values, which runs several times faster than an argsort; keys whose
    span and count need more than 63 bits fall back to the argsort.
    """
    keys = np.asarray(keys)
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.intp), keys.copy()
    lo = int(keys.min())
    shift = (n - 1).bit_length()
    if (int(keys.max()) - lo).bit_length() + shift > 63:
        order = np.argsort(keys)
        return order, keys[order]
    packed = keys.astype(np.int64) - lo
    packed <<= shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    packed += lo
    return order, packed.astype(keys.dtype, copy=False)


_INT64_LIMIT = 2**63


def composite_keys(
    seg_ids: np.ndarray,
    keys: np.ndarray,
    key_range: Optional[Tuple[int, int]] = None,
) -> np.ndarray:
    """Pack ``(segment, key)`` pairs into one int64 that orders like the pair.

    ``comp = seg * span + (key - kmin)`` — the composite radix key of
    paper Algorithm 2.  By default ``kmin = keys.min()`` and
    ``span = keys.max() - kmin + 1``; pass ``key_range=(kmin, span)`` to
    pack two arrays the same way so their composites compare against
    each other (a composite-key join).

    Raises :class:`DeviceError` on non-integer inputs, on a key outside
    *key_range*, and when the packed value would overflow int64.
    """
    seg_ids = np.asarray(seg_ids)
    keys = np.asarray(keys)
    if seg_ids.dtype.kind not in "iu" or keys.dtype.kind not in "iu":
        raise DeviceError(
            "composite_keys: segment ids and keys must be integers, got "
            f"{seg_ids.dtype} and {keys.dtype}"
        )
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64)
    lo, hi = int(keys.min()), int(keys.max())
    if key_range is None:
        kmin, span = lo, hi - lo + 1
    else:
        kmin, span = int(key_range[0]), int(key_range[1])
        if lo < kmin or hi >= kmin + span:
            raise DeviceError(
                f"composite_keys: keys span [{lo}, {hi}], outside the "
                f"declared range [{kmin}, {kmin + span})"
            )
    seg_lo, seg_hi = int(seg_ids.min()), int(seg_ids.max())
    if max(seg_hi + 1, -seg_lo) * span > _INT64_LIMIT or hi >= _INT64_LIMIT:
        raise DeviceError(
            f"composite_keys: segments [{seg_lo}, {seg_hi}] times key span "
            f"{span} overflow int64"
        )
    comp = seg_ids.astype(np.int64) * np.int64(span)
    comp += keys.astype(np.int64, copy=False)
    if kmin:
        comp -= np.int64(kmin)
    return comp


def composite_argsort(seg_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Stable permutation ordering elements by ``(segment, key)``.

    One stable sort of the :func:`composite_keys`; the same permutation
    ``np.lexsort((keys, seg_ids))`` returns, so equal pairs keep their
    input order and any later float reduction sums in the same order.
    """
    return np.argsort(composite_keys(seg_ids, keys), kind="stable")


def segmented_sort(
    device: Device,
    seg_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    phase: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(keys, values)`` within each segment (cub segmented sort).

    *seg_ids* must be non-decreasing (elements grouped by segment) and
    both *seg_ids* and *keys* integer.  Returns ``(seg_ids, keys,
    values)`` with keys ascending per segment; equal keys keep their
    input order.
    """
    seg_ids = np.asarray(seg_ids)
    keys = np.asarray(keys)
    values = np.asarray(values)

    def body() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        order = composite_argsort(seg_ids, keys)
        return seg_ids[order], keys[order], values[order]

    return device.execute(
        "segmented_sort", _cost_linear(len(keys), _LOG2_SORT_FACTOR, 6), body, phase
    )


def segmented_reduce_sum(
    device: Device,
    values: np.ndarray,
    seg_ptr: np.ndarray,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Per-segment sums over a CSR-pointed layout (empty segments → 0).

    Each segment is reduced independently of every other segment (one
    ``np.add.reduceat`` slice per segment), so a segment's sum depends
    *only* on that segment's values.  The incremental blockmodel
    maintainer relies on this: re-reducing one untouched segment in
    isolation reproduces the bit-identical float sum a full pass would
    produce, which is what lets it patch cached per-block entropy term
    sums instead of recomputing all of them.
    """
    values = np.asarray(values)
    seg_ptr = np.asarray(seg_ptr)

    def body() -> np.ndarray:
        dtype = (np.result_type(values.dtype, np.int64)
                 if values.dtype.kind in "iu" else values.dtype)
        num_segments = max(len(seg_ptr) - 1, 0)
        out = np.zeros(num_segments, dtype=dtype)
        if len(values) == 0 or num_segments == 0:
            return out
        lengths = seg_ptr[1:] - seg_ptr[:-1]
        nonempty = np.flatnonzero(lengths > 0)
        if len(nonempty):
            starts = np.asarray(seg_ptr[:-1][nonempty], dtype=np.intp)
            tail = int(seg_ptr[-1])
            if tail < len(values):
                # reduceat's final slice runs to the end of *values*;
                # cap it at seg_ptr[-1] with a sentinel start.
                starts = np.append(starts, tail)
                sums = np.add.reduceat(values.astype(dtype, copy=False), starts)[:-1]
            else:
                sums = np.add.reduceat(values.astype(dtype, copy=False), starts)
            out[nonempty] = sums
        return out

    return device.execute(
        "segmented_reduce_sum", _cost_linear(len(values), 2.0), body, phase
    )


def reduce_by_key(
    device: Device,
    keys: np.ndarray,
    values: np.ndarray,
    phase: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compress consecutive equal keys, summing their values.

    Keys must already be grouped (sorted); this is thrust::reduce_by_key.
    Returns ``(unique_keys, sums)``.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)

    def body() -> Tuple[np.ndarray, np.ndarray]:
        n = len(keys)
        if n == 0:
            return keys[:0].copy(), values[:0].copy()
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        np.not_equal(keys[1:], keys[:-1], out=heads[1:])
        starts = np.flatnonzero(heads)
        return keys[starts], np.add.reduceat(values, starts)

    return device.execute("reduce_by_key", _cost_linear(len(keys), 3.0, 4), body, phase)


def segmented_reduce_by_key(
    device: Device,
    seg_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    phase: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce duplicate keys *within* segments (Algorithm 2 line 8).

    Inputs must be grouped by segment with keys sorted inside each segment
    (the output of :func:`segmented_sort`).  Returns
    ``(out_seg_ids, out_keys, out_sums)``.
    """
    seg_ids = np.asarray(seg_ids)
    keys = np.asarray(keys)
    values = np.asarray(values)

    def body() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(keys)
        if n == 0:
            return seg_ids[:0].copy(), keys[:0].copy(), values[:0].copy()
        heads = np.empty(n, dtype=bool)
        heads[0] = True
        np.not_equal(seg_ids[1:], seg_ids[:-1], out=heads[1:])
        heads[1:] |= keys[1:] != keys[:-1]
        starts = np.flatnonzero(heads)
        return seg_ids[starts], keys[starts], np.add.reduceat(values, starts)

    return device.execute(
        "segmented_reduce_by_key", _cost_linear(len(keys), 3.0, 5), body, phase
    )


def bincount(
    device: Device,
    values: np.ndarray,
    minlength: int,
    weights: Optional[np.ndarray] = None,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Histogram with atomic-add semantics (device-side ``atomicAdd``)."""
    values = np.asarray(values)

    def body() -> np.ndarray:
        out = np.bincount(values, weights=weights, minlength=minlength)
        if weights is None:
            return out.astype(INDEX_DTYPE)
        return out

    return device.execute("bincount", _cost_linear(len(values), 1.5, 3), body, phase)
