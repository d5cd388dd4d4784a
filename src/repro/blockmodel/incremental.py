"""Incremental blockmodel maintenance: sparse deltas instead of rebuilds.

After every accepted MCMC batch the seed pipeline re-ran Algorithm 2
(:func:`~repro.blockmodel.update.rebuild_blockmodel`) over the whole
graph — O(E log E) work to reflect a batch that perturbs only
O(batch · avg-degree) blockmodel entries.  :class:`IncrementalBlockmodel`
replaces that with exact sparse delta application, the strategy of the
CPU SBP lineage (arXiv:2305.18663, arXiv:1708.07883) lifted onto the
simulated device:

* the per-cell deltas come from the batch's
  :class:`~repro.blockmodel.delta.MoveDeltaContext`, the movers'
  adjacency already aggregated by ``(mover, block)`` for ΔMDL: each
  entry moves its out-weight from cell ``(r, t)`` to ``(s, t)`` and its
  in-weight from ``(t, r)`` to ``(t, s)``, each self-loop moves from
  ``(r, r)`` to ``(s, s)``, and an edge between two movers, which both
  movers' entries count, gets the correction that leaves it moved once
  — the keyed pass of the GraphChallenge reference's
  ``EdgeCountUpdates``, which computes a move's new rows and columns
  once for ΔS and the update;
* the deltas are compressed with ``sort_by_key → reduce_by_key`` into
  sorted unique ``row·B + col`` keys (an unstable sort: the values are
  integers, summed exactly in any order);
* the maintainer mirrors each CSR direction as a sorted key array
  (``row·B + col`` out, ``col·B + row`` in) next to its CSR arrays,
  and folds the deltas in with one sorted-key merge per direction: one
  ``searchsorted`` finds the cells a row already has, one mask places
  the new ones, entries that reach 0 are dropped, and ``ptr`` moves by
  the per-row count of inserted less dropped cells;
* block degrees are patched with two signed histograms over the movers'
  exact integer degrees, applied to the mirror's own degree arrays;
* the ``B × B`` lookup table (below the cell budget of
  :meth:`~repro.blockmodel.blockmodel.BlockmodelCSR.lookup`) is patched
  at the changed cells and handed to the new blockmodel, instead of
  being rebuilt from ``B²`` zeros per batch; the old blockmodel drops
  it and would build its own on a later lookup.

Each batch hands out a fresh O(nnz) CSR in any case, so the merge adds
no asymptotic cost, and no batch needs a rebuild, however many blocks
it touches.  The mirror is private: a returned :class:`BlockmodelCSR` owns
copies of the CSR arrays and block degrees, so a fault written into it
never reaches the next batch.

Nothing else is cached across batches: the vertex-move ΔMDL
(:func:`~repro.blockmodel.delta.move_delta_batch`) reads only the cells
and degrees a move touches, so there are no per-block term sums to keep
in step with the blockmodel.

Because the blockmodel arrays are exact integers, delta application is
*exact*, not approximate: an incremental run is byte-identical to a
rebuild-based run, which the integrity auditor (comparing against a
from-scratch rebuild) verifies on every audited site.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..errors import PartitionError
from ..gpusim.device import Device, KernelCost
from ..gpusim import primitives as prim
from ..graph.csr import DiGraphCSR
from ..obs import NULL_OBS, Observability
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray
from .blockmodel import BlockmodelCSR
from .delta import MoveDeltaContext, move_context

__all__ = ["IncrementalBlockmodel"]

#: One mirrored CSR direction: sorted unique cell keys, then the
#: direction's ``(ptr, nbr, wgt)``.
_Cells = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Block degrees ``(deg_out, deg_in)``.
_Degrees = Tuple[np.ndarray, np.ndarray]

_INT32_MAX = np.iinfo(np.int32).max


def _direction(keys: np.ndarray, wgt: np.ndarray, num_blocks: int) -> _Cells:
    """Sorted ``row·B + col`` keys and their weights → a mirrored direction."""
    b = max(num_blocks, 1)
    bounds = np.arange(num_blocks + 1, dtype=INDEX_DTYPE) * b
    ptr = np.searchsorted(keys, bounds).astype(INDEX_DTYPE)
    return keys, ptr, keys % b, wgt


def _csr(cells: _Cells) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A blockmodel's own copy of one mirrored direction's CSR arrays."""
    _, ptr, nbr, wgt = cells
    return ptr.copy(), nbr.copy(), wgt.copy()


def _merge_cells(
    cells: _Cells, d_keys: np.ndarray, d_vals: np.ndarray, num_blocks: int
) -> _Cells:
    """Fold sorted unique signed deltas into one mirrored direction.

    Returns new arrays (an unchanged key or column array is shared) and
    leaves the inputs as they were, so a desync raises before any state
    changes.
    """
    keys, ptr, nbr, wgt = cells
    n = len(keys)
    pos = np.searchsorted(keys, d_keys)
    if n:
        hit = keys[np.minimum(pos, n - 1)] == d_keys
    else:
        hit = np.zeros(len(d_keys), dtype=bool)
    miss = ~hit
    at = pos[hit]
    updated = wgt[at] + d_vals[hit]
    added = d_vals[miss]
    if (len(updated) and updated.min() < 0) or (len(added) and added.min() < 0):
        raise PartitionError(
            "incremental blockmodel desync: negative entry after "
            "delta application — the deltas no longer match the "
            "tracked blockmodel"
        )
    b = max(num_blocks, 1)
    new_keys = d_keys[miss]
    rows = new_keys // b
    counts = np.bincount(rows, minlength=num_blocks)
    if len(new_keys):
        # d_keys is sorted, so the cells inserted ahead of an existing
        # one are exactly the misses that precede it in d_keys
        slots = pos[miss] + np.arange(len(new_keys))
        old_slots = np.ones(n + len(new_keys), dtype=bool)
        old_slots[slots] = False

        def place(old: np.ndarray, inserted: np.ndarray) -> np.ndarray:
            out = np.empty(len(old_slots), dtype=old.dtype)
            out[slots] = inserted
            out[old_slots] = old
            return out

        keys = place(keys, new_keys)
        nbr = place(nbr, new_keys - rows * b)
        wgt = place(wgt, added)
        at = at + (np.cumsum(miss) - miss)[hit]
    else:
        wgt = wgt.copy()
    wgt[at] = updated
    gone = updated == 0
    if gone.any():
        counts -= np.bincount(d_keys[hit][gone] // b, minlength=num_blocks)
        live = np.ones(len(keys), dtype=bool)
        live[at[gone]] = False
        keys, nbr, wgt = keys[live], nbr[live], wgt[live]
    new_ptr = ptr.copy()
    new_ptr[1:] += np.cumsum(counts)
    return keys, new_ptr, nbr, wgt


class IncrementalBlockmodel:
    """Maintains the CSR blockmodel across accepted move batches.

    One instance is created per plateau attempt (so a faulted, retried
    attempt never sees stale state) and threaded through the block-merge
    and vertex-move phases.  ``reset`` / ``ensure`` (re)attach it to a
    :class:`BlockmodelCSR` and derive the private sorted-key mirror;
    ``apply_batch`` and ``apply_merge_relabel`` advance both;
    ``update_time_s`` accumulates the wall time of every maintenance
    operation for the profiler's ``blockmodel_update_s`` split.
    """

    def __init__(
        self,
        device: Device,
        graph: DiGraphCSR,
        *,
        obs: Optional[Observability] = None,
    ) -> None:
        self.device = device
        self.graph = graph
        self.obs = obs or NULL_OBS
        self.update_time_s = 0.0
        self.incremental_updates = 0
        self._bm: Optional[BlockmodelCSR] = None
        # Sorted-key mirror: out cells keyed row·B + col, in cells col·B + row,
        # each with its CSR arrays, plus the block degrees.
        self._out: Optional[_Cells] = None
        self._in: Optional[_Cells] = None
        self._deg: Optional[_Degrees] = None
        # The lookup table patched batch to batch: the mirror's out cells
        # at row·B + col.  Kept only while no cell can outgrow int32.
        self._table: Optional[np.ndarray] = None
        self._keep_table = graph.total_edge_weight <= _INT32_MAX
        # Persistent V-sized scratch for marking the movers of a batch.
        self._is_mover = np.zeros(graph.num_vertices, dtype=bool)
        self._old_block = np.zeros(graph.num_vertices, dtype=INDEX_DTYPE)
        self._new_block = np.zeros(graph.num_vertices, dtype=INDEX_DTYPE)
        # Weighted vertex degrees are move-invariant; gather, don't recompute.
        self._vertex_deg_out = graph.out_degrees()
        self._vertex_deg_in = graph.in_degrees()

    # ------------------------------------------------------------------
    @property
    def blockmodel(self) -> Optional[BlockmodelCSR]:
        return self._bm

    def reset(self, blockmodel: BlockmodelCSR) -> None:
        """Adopt *blockmodel* as the new ground truth and mirror its cells
        and degrees; the lookup table is built afresh."""
        bm, b = blockmodel, max(blockmodel.num_blocks, 1)

        def body() -> Tuple[_Cells, _Cells, _Degrees]:
            return (
                (bm._row_ids(bm.out_ptr) * b + bm.out_nbr, bm.out_ptr.copy(),
                 bm.out_nbr.copy(), bm.out_wgt.copy()),
                (bm._row_ids(bm.in_ptr) * b + bm.in_nbr, bm.in_ptr.copy(),
                 bm.in_nbr.copy(), bm.in_wgt.copy()),
                (bm.deg_out.copy(), bm.deg_in.copy()),
            )

        n = max(blockmodel.num_entries, 1)
        out, into, deg = self.device.execute(
            "mirror_cell_keys",
            KernelCost(n, ops_per_item=2.0, bytes_moved=8 * 4 * n),
            body,
            phase=None,
        )
        self._table = None
        self._adopt(blockmodel, out, into, deg)

    def ensure(self, blockmodel: BlockmodelCSR) -> None:
        """Attach to *blockmodel* unless it is already the tracked one."""
        if self._bm is not blockmodel:
            self.reset(blockmodel)

    def _adopt(
        self, blockmodel: BlockmodelCSR, out: _Cells, into: _Cells, deg: _Degrees
    ) -> None:
        self._bm, self._out, self._in, self._deg = blockmodel, out, into, deg

    def _count_update(self) -> None:
        self.incremental_updates += 1
        self.obs.count(
            "blockmodel_incremental_updates_total",
            help="accepted batches applied as sparse blockmodel deltas",
        )

    # ------------------------------------------------------------------
    def apply_batch(
        self,
        bmap: IndexArray,
        movers: np.ndarray,
        old_blocks: np.ndarray,
        new_blocks: np.ndarray,
        phase: Optional[str] = None,
        context: Optional[MoveDeltaContext] = None,
    ) -> BlockmodelCSR:
        """Apply one accepted batch of vertex moves as sparse deltas.

        Parameters
        ----------
        bmap:
            The *post-move* assignment (movers already relabelled).
        movers / old_blocks / new_blocks:
            Accepted vertices and their old (``r``) / new (``s``) blocks;
            ``r != s`` for every entry (the MH step filters no-ops).
        context:
            The movers' :class:`~repro.blockmodel.delta.MoveDeltaContext`
            against the pre-move assignment, one segment per mover in
            *movers* order — the vertex-move phase passes the one it
            scored the batch with; without it the movers' context is
            built here.

        Returns the new blockmodel.  Raises :class:`PartitionError` when
        the deltas would leave a negative cell, i.e. *old_blocks* does
        not match the tracked blockmodel.
        """
        if self._bm is None:
            raise PartitionError(
                "IncrementalBlockmodel.apply_batch before reset()"
            )
        t0 = time.perf_counter()
        try:
            return self._apply_batch(
                bmap, movers, old_blocks, new_blocks, phase, context
            )
        finally:
            self.update_time_s += time.perf_counter() - t0

    def _apply_batch(
        self,
        bmap: IndexArray,
        movers: np.ndarray,
        old_blocks: np.ndarray,
        new_blocks: np.ndarray,
        phase: Optional[str],
        context: Optional[MoveDeltaContext],
    ) -> BlockmodelCSR:
        assert self._bm is not None and self._out is not None and self._in is not None
        num_blocks = self._bm.num_blocks
        movers = np.asarray(movers, dtype=INDEX_DTYPE)
        r = np.asarray(old_blocks, dtype=INDEX_DTYPE)
        s = np.asarray(new_blocks, dtype=INDEX_DTYPE)

        d_keys, d_vals = self._delta_cells(
            bmap, movers, r, s, context, num_blocks, phase
        )
        out = self._merge(self._out, d_keys, d_vals, num_blocks, phase)
        in_keys, in_vals = self._transposed(d_keys, d_vals, num_blocks, phase)
        into = self._merge(self._in, in_keys, in_vals, num_blocks, phase)
        deg = self._patch_degrees(movers, r, s, num_blocks, phase)

        new_bm = BlockmodelCSR(
            num_blocks, *_csr(out), *_csr(into), deg[0].copy(), deg[1].copy()
        )
        # the table, patched at the changed cells, moves to new_bm; the
        # first batch after a reset builds it from new_bm's arrays
        table = self._table
        if table is not None:
            table[d_keys] += d_vals.astype(np.int32)
        table = self._bm.hand_over_lookup_cache(new_bm, out[0], table)
        self._table = table if self._keep_table else None
        self._adopt(new_bm, out, into, deg)
        self._count_update()
        return new_bm

    # ------------------------------------------------------------------
    def _delta_cells(
        self,
        bmap: IndexArray,
        movers: np.ndarray,
        r: np.ndarray,
        s: np.ndarray,
        context: Optional[MoveDeltaContext],
        num_blocks: int,
        phase: Optional[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Signed per-cell deltas, compressed to unique nonzero cells.

        Each context entry moves the mover's out-weight toward block
        ``t`` from ``(r, t)`` to ``(s, t)`` and its in-weight from ``(t,
        r)`` to ``(t, s)``; self-loops move from ``(r, r)`` to ``(s, s)``.
        An edge ``u → v`` between two movers sits in ``u``'s out-entry
        at ``r_v`` and in ``v``'s in-entry at ``r_u``, which together
        take it twice from ``(r_u, r_v)`` and put it at ``(s_u, r_v)``
        and ``(r_u, s_v)``; the correction ``+(r_u, r_v) − (s_u, r_v) −
        (r_u, s_v) + (s_u, s_v)`` leaves it moved once.
        """
        graph = self.graph

        def body() -> Tuple[np.ndarray, np.ndarray]:
            ctx = context
            if ctx is None:
                # the movers' context against the pre-move assignment
                saved = bmap[movers]
                bmap[movers] = r
                try:
                    ctx = move_context(graph, bmap, movers, s)
                finally:
                    bmap[movers] = saved
            is_mover, old_of, new_of = self._is_mover, self._old_block, self._new_block
            is_mover[movers] = True
            old_of[movers] = r
            new_of[movers] = s
            try:
                link = np.flatnonzero(is_mover[ctx.edge_dst])
                dst = ctx.edge_dst[link]
                r_v, s_v = old_of[dst], new_of[dst]
            finally:
                is_mover[movers] = False
            src = ctx.edge_seg[link]
            w_l = ctx.edge_w[link]
            r_u, s_u = r[src], s[src]
            seg, t = ctx.seg, ctx.blk
            r_e, s_e = r[seg], s[seg]
            w_o = ctx.w_out.astype(WEIGHT_DTYPE)
            w_i = ctx.w_in.astype(WEIGHT_DTYPE)
            self_w = ctx.self_w.astype(WEIGHT_DTYPE)
            b = num_blocks
            tb = t * b
            keys = np.concatenate((
                r_e * b + t, s_e * b + t, tb + r_e, tb + s_e,
                r * (b + 1), s * (b + 1),
                r_u * b + r_v, s_u * b + r_v, r_u * b + s_v, s_u * b + s_v,
            ))
            vals = np.concatenate(
                (-w_o, w_o, -w_i, w_i, -self_w, self_w, w_l, -w_l, -w_l, w_l)
            )
            nz = vals != 0
            return keys[nz], vals[nz]

        work = int(
            (graph.out_adj.ptr[movers + 1] - graph.out_adj.ptr[movers]).sum()
            + (graph.in_adj.ptr[movers + 1] - graph.in_adj.ptr[movers]).sum()
        )
        keys, vals = self.device.execute(
            "incremental_delta_cells",
            KernelCost(max(work, 1), ops_per_item=4.0, bytes_moved=8 * 4 * max(work, 1)),
            body,
            phase,
        )
        # integer values, summed exactly: the sort need not be stable
        keys, vals = prim.sort_by_key(self.device, keys, vals, phase, stable=False)
        ukeys, sums = prim.reduce_by_key(self.device, keys, vals, phase)
        nz = sums != 0
        return ukeys[nz], sums[nz]

    def _transposed(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Out-side ``row·B + col`` cells re-keyed ``col·B + row``, sorted."""
        b = max(num_blocks, 1)
        rows, cols = np.divmod(keys, b)
        # the keys are unique: the sort need not be stable
        return prim.sort_by_key(
            self.device, cols * b + rows, vals, phase, stable=False
        )

    def _merge(
        self,
        cells: _Cells,
        d_keys: np.ndarray,
        d_vals: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> _Cells:
        """One direction's sorted-key merge: its new mirror."""
        n = max(len(cells[0]) + len(d_keys), 1)
        return self.device.execute(
            "apply_delta_cells",
            KernelCost(n, ops_per_item=2.0, bytes_moved=8 * 6 * n),
            lambda: _merge_cells(cells, d_keys, d_vals, num_blocks),
            phase,
        )

    def _patch_degrees(
        self,
        movers: np.ndarray,
        r: np.ndarray,
        s: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> _Degrees:
        assert self._deg is not None
        old_out, old_in = self._deg

        def body() -> _Degrees:
            d_out_m = self._vertex_deg_out[movers].astype(np.float64)
            d_in_m = self._vertex_deg_in[movers].astype(np.float64)
            idx = np.concatenate((r, s))
            deg_out = old_out + np.bincount(
                idx,
                weights=np.concatenate((-d_out_m, d_out_m)),
                minlength=num_blocks,
            ).astype(WEIGHT_DTYPE)
            deg_in = old_in + np.bincount(
                idx,
                weights=np.concatenate((-d_in_m, d_in_m)),
                minlength=num_blocks,
            ).astype(WEIGHT_DTYPE)
            return deg_out, deg_in

        n = max(len(movers), 1)
        return self.device.execute(
            "patch_block_degrees",
            KernelCost(n, ops_per_item=4.0, bytes_moved=8 * 4 * n),
            body,
            phase,
        )

    # ------------------------------------------------------------------
    def apply_merge_relabel(
        self,
        gmap: np.ndarray,
        new_num_blocks: int,
        phase: Optional[str] = None,
    ) -> BlockmodelCSR:
        """Collapse the tracked blockmodel under a block relabelling.

        *gmap* maps every old block id to its dense post-merge id (the
        ``gmap`` of :func:`~repro.core.block_merge.apply_merges_with_relabel`).
        Re-keys the mirrored cells and sort-reduces them —
        O(nnz log nnz) instead of Algorithm 2's O(E log E) — and folds
        the degree arrays with two histograms.  The sorted result is the
        mirror for the next batch.  Byte-identical to a full rebuild
        under the relabelled assignment.
        """
        if self._bm is None:
            raise PartitionError(
                "IncrementalBlockmodel.apply_merge_relabel before reset()"
            )
        t0 = time.perf_counter()
        try:
            return self._apply_merge_relabel(gmap, new_num_blocks, phase)
        finally:
            self.update_time_s += time.perf_counter() - t0

    def _apply_merge_relabel(
        self, gmap: np.ndarray, new_num_blocks: int, phase: Optional[str]
    ) -> BlockmodelCSR:
        old = self._bm
        assert old is not None and self._out is not None and self._deg is not None
        device = self.device
        b, b2 = max(old.num_blocks, 1), int(new_num_blocks)
        old_out, old_in = self._deg
        gmap = np.asarray(gmap, dtype=INDEX_DTYPE)
        old_keys, _, _, old_wgt = self._out

        def rekey_body() -> Tuple[np.ndarray, np.ndarray]:
            return gmap[old_keys // b] * b2 + gmap[old_keys % b], old_wgt

        n = max(len(old_keys), 1)
        keys, vals = device.execute(
            "merge_relabel_keys",
            KernelCost(n, ops_per_item=3.0, bytes_moved=8 * 3 * n),
            rekey_body,
            phase,
        )
        # integer values, summed exactly: the sort need not be stable
        keys, vals = prim.sort_by_key(device, keys, vals, phase, stable=False)
        out_cells = prim.reduce_by_key(device, keys, vals, phase)
        in_cells = self._transposed(*out_cells, b2, phase)

        def assemble_body() -> Tuple[BlockmodelCSR, _Cells, _Cells, _Degrees]:
            out = _direction(*out_cells, b2)
            into = _direction(*in_cells, b2)
            deg = (
                np.bincount(
                    gmap, weights=old_out.astype(np.float64), minlength=b2
                ).astype(WEIGHT_DTYPE),
                np.bincount(
                    gmap, weights=old_in.astype(np.float64), minlength=b2
                ).astype(WEIGHT_DTYPE),
            )
            new_bm = BlockmodelCSR(
                b2, *_csr(out), *_csr(into), deg[0].copy(), deg[1].copy(),
            )
            return new_bm, out, into, deg

        m = max(len(out_cells[0]), 1)
        new_bm, out, into, deg = device.execute(
            "merge_relabel_assemble",
            KernelCost(m, ops_per_item=3.0, bytes_moved=8 * 4 * m),
            assemble_body,
            phase,
        )
        # B changed: the next batch builds a table of the new size
        self._table = None
        self._adopt(new_bm, out, into, deg)
        self._count_update()
        return new_bm
