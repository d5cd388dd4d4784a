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
from typing import Callable, Optional, TypeVar

import numpy as np

from ..types import FLOAT_DTYPE, INDEX_DTYPE
from .device import Device, KernelCost

T = TypeVar("T")


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


def multinomial_neighbor_table(
    device: Device,
    rng: np.random.Generator,
    ptr: np.ndarray,
    nbr: np.ndarray,
    wgt: np.ndarray,
    rows: Optional[np.ndarray] = None,
    phase: Optional[str] = None,
) -> np.ndarray:
    """Draw, per row, one neighbour with probability ∝ edge weight.

    Parameters
    ----------
    ptr, nbr, wgt:
        A CSR adjacency (rows may be blocks or vertices).
    rows:
        Which rows to sample for (default: all rows, once each).

    Returns
    -------
    For each requested row, a sampled neighbour id, or ``-1`` for rows
    with no (positively-weighted) neighbours.
    """
    ptr = np.asarray(ptr)
    nbr = np.asarray(nbr)
    wgt = np.asarray(wgt)
    if rows is None:
        rows = np.arange(len(ptr) - 1, dtype=INDEX_DTYPE)
    else:
        rows = np.asarray(rows, dtype=INDEX_DTYPE)

    def body() -> np.ndarray:
        out = np.full(len(rows), -1, dtype=INDEX_DTYPE)
        if len(nbr) == 0 or len(rows) == 0:
            return out
        # Global cumulative weights; per-row totals by difference.
        csum = np.concatenate(([0], np.cumsum(wgt, dtype=np.float64)))
        lo = ptr[rows]
        hi = ptr[rows + 1]
        totals = csum[hi] - csum[lo]
        has_nbrs = totals > 0
        if not np.any(has_nbrs):
            return out
        u = rng.random(len(rows))
        # Target cumulative mass inside each row; searchsorted on the
        # global csum then clamps into the row's range.
        targets = csum[lo] + u * totals
        idx = np.searchsorted(csum, targets, side="right") - 1
        idx = np.clip(idx, lo, hi - 1)
        out[has_nbrs] = nbr[idx[has_nbrs]]
        return out

    cost = KernelCost(work_items=max(len(rows), 1), ops_per_item=8.0,
                      bytes_moved=8 * (len(rows) * 4 + len(wgt)))
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
    ptr: np.ndarray,
    nbr: np.ndarray,
    wgt: np.ndarray,
    rows: Optional[np.ndarray] = None,
    phase: Optional[str] = None,
) -> LookupTables:
    """Build all three tables, in this draw order (paper Fig. 4).

    ``num_slots`` is the proposal-slot count (``B × num_proposals`` in the
    block-merge phase, batch size in the vertex-move phase); the
    multinomial table has one entry per *row* in ``rows``.
    """
    return LookupTables(
        uniform=uniform_table(device, rng, num_slots, phase),
        random_block=random_block_table(device, rng, num_slots, num_blocks, phase),
        multinomial=multinomial_neighbor_table(
            device, rng, ptr, nbr, wgt, rows=rows, phase=phase
        ),
    )
