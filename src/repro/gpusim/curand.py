"""cuRAND-style batched random lookup tables (paper Fig. 4).

GSAP avoids per-proposal RNG calls by pre-generating three tables before
each proposal kernel (on concurrent streams in the paper; the simulated
clock charges each table build as its own launch):

* a **uniform table** — one float in [0, 1) per proposal slot (the ``x``
  of Algorithm 1 line 6);
* a **random-block table** — one uniformly random block id per slot
  (Algorithm 1 lines 3 and 8);
* a **multinomial table** — for each proposer, one neighbour drawn from
  the multinomial distribution given by its adjacency weights
  (Algorithm 1 line 5).

The multinomial draw is realised with a single vectorized inverse-CDF
lookup over the row-wise cumulative weights, which is exactly the
alias-free strategy a segmented ``searchsorted`` kernel implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..types import FLOAT_DTYPE, INDEX_DTYPE
from .device import Device, KernelCost

T = TypeVar("T")
#: One CSR part of an adjacency: ``(ptr, nbr, wgt)``, optionally followed
#: by the :func:`cumulative_weights` of ``wgt``.
Part = Tuple[np.ndarray, ...]


def _launch_table(
    device: Device,
    name: str,
    cost: KernelCost,
    body: Callable[[], T],
    phase: Optional[str],
) -> T:
    """Launch one table build; a planned ``stream`` fault fires first."""
    if device.fault_injector is not None:
        device.fault_injector.on_stream_launch(name, phase)
    return device.execute(name, cost, body, phase)


def uniform_table(
    device: Device,
    rng: np.random.Generator,
    size: int,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Batch of ``size`` uniforms in [0, 1) (cuRAND uniform generator)."""
    cost = KernelCost(work_items=max(size, 1), ops_per_item=4.0)
    body = lambda: rng.random(size, dtype=FLOAT_DTYPE)
    return _launch_table(device, "curand_uniform", cost, body, phase)


def random_block_table(
    device: Device,
    rng: np.random.Generator,
    size: int,
    num_blocks: int,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Batch of ``size`` uniformly random block ids in [0, num_blocks)."""
    cost = KernelCost(work_items=max(size, 1), ops_per_item=4.0)
    body = lambda: rng.integers(0, max(num_blocks, 1), size=size, dtype=INDEX_DTYPE)
    return _launch_table(device, "curand_random_block", cost, body, phase)


def cumulative_weights(wgt: np.ndarray) -> np.ndarray:
    """``[0, w0, w0 + w1, …]``: the exact integer prefix sum of the
    (integer) weights that the multinomial draw searches."""
    return np.concatenate(([0], np.cumsum(wgt)))


def multinomial_neighbor_table(
    device: Device,
    rng: np.random.Generator,
    parts: Sequence[Part],
    rows: Optional[np.ndarray] = None,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Draw, per row, one neighbour with probability ∝ edge weight.

    Parameters
    ----------
    parts:
        The adjacency as one or more CSR parts ``(ptr, nbr, wgt)`` with
        integer weights over the same rows (blocks or vertices): row
        ``u`` is the entries of row ``u`` of every part in turn, so a
        blockmodel's two directions draw from ``out_u ++ in_u``
        (:func:`~repro.graph.csr.combined_adjacency`) without a combined
        copy, with the same draws and the same neighbours.  A part may
        carry a fourth item, the :func:`cumulative_weights` of its
        *wgt*, for a caller that draws from one adjacency many times
        (the vertex adjacency, which never changes within a run);
        otherwise it is computed here.  The draws are the same either
        way.
    rows:
        Which rows to sample for (default: all rows, once each).

    Returns
    -------
    For each requested row, a sampled neighbour id, or ``-1`` for rows
    with no (positively-weighted) neighbours.

    The target is the float the inverse-CDF search over the concatenated
    rows' float prefix sum would look for; every prefix sum is an exact
    integer, so the entry the search finds is the one whose integer
    running sum within the row first passes the target's floor, found in
    the part that holds it.
    """
    parts = [
        (np.asarray(part[0]), np.asarray(part[1]), np.asarray(part[2]),
         part[3] if len(part) > 3 else None)
        for part in parts
    ]
    if rows is None:
        rows = np.arange(len(parts[0][0]) - 1, dtype=INDEX_DTYPE)
    else:
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
    num_entries = sum(len(nbr) for _, nbr, _, _ in parts)

    def body() -> np.ndarray:
        out = np.full(len(rows), -1, dtype=INDEX_DTYPE)
        if num_entries == 0 or len(rows) == 0:
            return out
        sums = [
            cumulative_weights(wgt) if csum is None else csum
            for _, _, wgt, csum in parts
        ]
        firsts = [ptr[rows] for ptr, _, _, _ in parts]
        begins = [cum[first] for cum, first in zip(sums, firsts)]
        sizes = [
            cum[ptr[rows + 1]] - begin
            for (ptr, _, _, _), cum, begin in zip(parts, sums, begins)
        ]
        start = sum(begins)
        total = sum(sizes)
        has_nbrs = total > 0
        if not np.any(has_nbrs):
            return out
        u = rng.random(len(rows))
        # the target mass, then its place within the row
        reach = np.floor(start + u * total).astype(np.int64) - start
        left = has_nbrs.copy()
        last = out.copy()
        for (ptr, nbr, _, _), cum, first, begin, size in zip(
            parts, sums, firsts, begins, sizes
        ):
            here = np.flatnonzero(left & (reach < size))
            at = np.searchsorted(cum, begin[here] + reach[here], side="right") - 1
            out[here] = nbr[at]
            left[here] = False
            reach -= size
            filled = size > 0
            last[filled] = nbr[ptr[rows[filled] + 1] - 1]
        # a target at the row's full mass takes its last entry
        out[left] = last[left]
        return out

    cost = KernelCost(work_items=max(len(rows), 1), ops_per_item=8.0,
                      bytes_moved=8 * (len(rows) * 4 + num_entries))
    return _launch_table(device, "curand_multinomial", cost, body, phase)


@dataclass(frozen=True)
class LookupTables:
    """The three pre-generated tables consumed by a proposal kernel."""

    uniform: np.ndarray
    random_block: np.ndarray
    multinomial: np.ndarray


def build_lookup_tables(
    device: Device,
    rng: np.random.Generator,
    num_slots: int,
    num_blocks: int,
    parts: Sequence[Part],
    rows: Optional[np.ndarray] = None,
    phase: Optional[str] = None,
) -> LookupTables:
    """Build all three tables, in this draw order (paper Fig. 4).

    ``num_slots`` is the proposal-slot count (``B × num_proposals`` in the
    block-merge phase, batch size in the vertex-move phase); the
    multinomial table has one entry per *row* in ``rows``, drawn over the
    adjacency *parts* by :func:`multinomial_neighbor_table`.
    """
    return LookupTables(
        uniform=uniform_table(device, rng, num_slots, phase),
        random_block=random_block_table(device, rng, num_slots, num_blocks, phase),
        multinomial=multinomial_neighbor_table(
            device, rng, parts, rows=rows, phase=phase
        ),
    )
