"""Incremental blockmodel maintenance: sparse deltas instead of rebuilds.

After every accepted MCMC batch the seed pipeline re-ran Algorithm 2
(:func:`~repro.blockmodel.update.rebuild_blockmodel`) over the whole
graph — O(E log E) work to reflect a batch that perturbs only
O(batch · avg-degree) blockmodel entries.  :class:`IncrementalBlockmodel`
replaces that with exact sparse delta application, the strategy of the
CPU SBP lineage (arXiv:2305.18663, arXiv:1708.07883) lifted onto the
simulated device:

* every edge incident to an accepted mover contributes ``-w`` at its old
  ``(block(src), block(dst))`` cell and ``+w`` at its new one; in-edges
  whose source also moved are skipped so mover↔mover edges (and
  self-loops) are counted exactly once;
* the per-cell deltas are compressed with ``sort_by_key → reduce_by_key``
  into sorted unique ``row·B + col`` keys;
* the maintainer mirrors each CSR direction as a sorted key array
  (``row·B + col`` out, ``col·B + row`` in) plus its weights, and folds
  the deltas in with one sorted-key merge per direction: one
  ``searchsorted`` adds to the cells a row already has, ``np.insert``
  places the new ones, entries that reach 0 are dropped, and ``ptr`` is
  the search of the row boundaries ``arange(B + 1)·B``;
* block degrees are patched with two signed histograms over the movers'
  exact integer degrees, applied to the mirror's own degree arrays.

Each batch hands out a fresh O(nnz) CSR in any case, so the merge adds
no asymptotic cost, and no batch needs a rebuild, however many blocks
it touches.  The mirror is private: a returned :class:`BlockmodelCSR` owns
copies of the weights and block degrees, so a fault written into it
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
from ..graph.csr import DiGraphCSR, gather_rows
from ..obs import NULL_OBS, Observability
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray
from .blockmodel import BlockmodelCSR

__all__ = ["IncrementalBlockmodel"]

#: One CSR direction as sorted unique cell keys and their weights.
_Cells = Tuple[np.ndarray, np.ndarray]
#: Block degrees ``(deg_out, deg_in)``.
_Degrees = Tuple[np.ndarray, np.ndarray]


def _csr_direction(
    keys: np.ndarray, wgt: np.ndarray, num_blocks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted ``row·B + col`` keys → CSR ``(ptr, nbr, wgt)`` with copied weights."""
    b = max(num_blocks, 1)
    bounds = np.arange(num_blocks + 1, dtype=INDEX_DTYPE) * b
    ptr = np.searchsorted(keys, bounds).astype(INDEX_DTYPE)
    return ptr, keys % b, wgt.copy()


def _merge_cells(
    keys: np.ndarray, wgt: np.ndarray, d_keys: np.ndarray, d_vals: np.ndarray
) -> _Cells:
    """Fold sorted unique signed deltas into sorted unique cells.

    Returns new arrays and leaves the inputs as they were, so a desync
    raises before any state changes.
    """
    n = len(keys)
    pos = np.searchsorted(keys, d_keys)
    hit = pos < n
    hit[hit] = keys[pos[hit]] == d_keys[hit]
    miss = ~hit
    hit_pos = pos[hit]
    updated = wgt[hit_pos] + d_vals[hit]
    if (len(updated) and updated.min() < 0) or (
        np.any(miss) and d_vals[miss].min() < 0
    ):
        raise PartitionError(
            "incremental blockmodel desync: negative entry after "
            "delta application — the deltas no longer match the "
            "tracked blockmodel"
        )
    new_keys = np.insert(keys, pos[miss], d_keys[miss])
    new_wgt = np.insert(wgt, pos[miss], d_vals[miss])
    # d_keys is sorted, so the cells inserted ahead of a hit are exactly
    # the misses that precede it in d_keys.
    shift = np.cumsum(miss) - miss
    new_wgt[hit_pos + shift[hit]] = updated
    if not updated.all():
        live = new_wgt != 0
        new_keys, new_wgt = new_keys[live], new_wgt[live]
    return new_keys, new_wgt


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
        # plus the block degrees.
        self._out: Optional[_Cells] = None
        self._in: Optional[_Cells] = None
        self._deg: Optional[_Degrees] = None
        # Persistent V-sized scratch for marking the movers of a batch.
        self._is_mover = np.zeros(graph.num_vertices, dtype=bool)
        self._old_block = np.zeros(graph.num_vertices, dtype=INDEX_DTYPE)
        # Weighted vertex degrees are move-invariant; gather, don't recompute.
        self._vertex_deg_out = graph.out_degrees()
        self._vertex_deg_in = graph.in_degrees()

    # ------------------------------------------------------------------
    @property
    def blockmodel(self) -> Optional[BlockmodelCSR]:
        return self._bm

    def reset(self, blockmodel: BlockmodelCSR) -> None:
        """Adopt *blockmodel* as the new ground truth and mirror its cells
        and degrees."""
        bm, b = blockmodel, max(blockmodel.num_blocks, 1)

        def body() -> Tuple[_Cells, _Cells, _Degrees]:
            return (
                (bm._row_ids(bm.out_ptr) * b + bm.out_nbr, bm.out_wgt.copy()),
                (bm._row_ids(bm.in_ptr) * b + bm.in_nbr, bm.in_wgt.copy()),
                (bm.deg_out.copy(), bm.deg_in.copy()),
            )

        n = max(blockmodel.num_entries, 1)
        out, into, deg = self.device.execute(
            "mirror_cell_keys",
            KernelCost(n, ops_per_item=2.0, bytes_moved=8 * 4 * n),
            body,
            phase=None,
        )
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
    ) -> BlockmodelCSR:
        """Apply one accepted batch of vertex moves as sparse deltas.

        Parameters
        ----------
        bmap:
            The *post-move* assignment (movers already relabelled).
        movers / old_blocks / new_blocks:
            Accepted vertices and their old (``r``) / new (``s``) blocks;
            ``r != s`` for every entry (the MH step filters no-ops).

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
            return self._apply_batch(bmap, movers, old_blocks, new_blocks, phase)
        finally:
            self.update_time_s += time.perf_counter() - t0

    def _apply_batch(
        self,
        bmap: IndexArray,
        movers: np.ndarray,
        old_blocks: np.ndarray,
        new_blocks: np.ndarray,
        phase: Optional[str],
    ) -> BlockmodelCSR:
        assert self._bm is not None and self._out is not None and self._in is not None
        num_blocks = self._bm.num_blocks
        movers = np.asarray(movers, dtype=INDEX_DTYPE)
        r = np.asarray(old_blocks, dtype=INDEX_DTYPE)
        s = np.asarray(new_blocks, dtype=INDEX_DTYPE)

        d_keys, d_vals = self._delta_cells(bmap, movers, r, s, num_blocks, phase)
        out, out_csr = self._merge(self._out, d_keys, d_vals, num_blocks, phase)
        in_keys, in_vals = self._transposed(d_keys, d_vals, num_blocks, phase)
        into, in_csr = self._merge(self._in, in_keys, in_vals, num_blocks, phase)
        deg = self._patch_degrees(movers, r, s, num_blocks, phase)

        new_bm = BlockmodelCSR(
            num_blocks, *out_csr, *in_csr, deg[0].copy(), deg[1].copy()
        )
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
        num_blocks: int,
        phase: Optional[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Signed per-cell deltas, compressed to unique nonzero cells.

        Every out-edge of a mover contributes to its old and new row;
        in-edges contribute only when their *source* did not move, which
        counts mover↔mover edges (gathered once from the out side) and
        self-loops exactly once.
        """
        graph = self.graph

        def body() -> Tuple[np.ndarray, np.ndarray]:
            is_mover, old_of = self._is_mover, self._old_block
            is_mover[movers] = True
            old_of[movers] = r
            try:
                o_seg_ptr, o_dst, o_w = gather_rows(*graph.out_adj, movers)
                o_seg = np.repeat(
                    np.arange(len(movers), dtype=INDEX_DTYPE), np.diff(o_seg_ptr)
                )
                dst_new = bmap[o_dst]
                dst_old = np.where(is_mover[o_dst], old_of[o_dst], dst_new)
                rows_old, rows_new = r[o_seg], s[o_seg]

                i_seg_ptr, i_src, i_w = gather_rows(*graph.in_adj, movers)
                i_seg = np.repeat(
                    np.arange(len(movers), dtype=INDEX_DTYPE), np.diff(i_seg_ptr)
                )
                keep = ~is_mover[i_src]
                i_src, i_seg, i_w = i_src[keep], i_seg[keep], i_w[keep]
                src_blk = bmap[i_src]
                cols_old, cols_new = r[i_seg], s[i_seg]
            finally:
                is_mover[movers] = False

            b = num_blocks
            keys = np.concatenate(
                (
                    rows_old * b + dst_old,
                    rows_new * b + dst_new,
                    src_blk * b + cols_old,
                    src_blk * b + cols_new,
                )
            )
            vals = np.concatenate((-o_w, o_w, -i_w, i_w))
            return keys, vals

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
        keys, vals = prim.sort_by_key(self.device, keys, vals, phase)
        ukeys, sums = prim.reduce_by_key(self.device, keys, vals, phase)
        nz = sums != 0
        return ukeys[nz], sums[nz]

    def _transposed(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> _Cells:
        """Out-side ``row·B + col`` cells re-keyed ``col·B + row``, sorted."""
        b = max(num_blocks, 1)
        return prim.sort_by_key(self.device, (keys % b) * b + keys // b, vals, phase)

    def _merge(
        self,
        cells: _Cells,
        d_keys: np.ndarray,
        d_vals: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> Tuple[_Cells, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One direction's sorted-key merge: its new mirror and CSR arrays."""
        keys, wgt = cells

        def body():
            merged = _merge_cells(keys, wgt, d_keys, d_vals)
            return merged, _csr_direction(*merged, num_blocks)

        n = max(len(keys) + len(d_keys), 1)
        return self.device.execute(
            "apply_delta_cells",
            KernelCost(n, ops_per_item=2.0, bytes_moved=8 * 6 * n),
            body,
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
        old_keys, old_wgt = self._out

        def rekey_body() -> Tuple[np.ndarray, np.ndarray]:
            return gmap[old_keys // b] * b2 + gmap[old_keys % b], old_wgt

        n = max(len(old_keys), 1)
        keys, vals = device.execute(
            "merge_relabel_keys",
            KernelCost(n, ops_per_item=3.0, bytes_moved=8 * 3 * n),
            rekey_body,
            phase,
        )
        keys, vals = prim.sort_by_key(device, keys, vals, phase)
        out = prim.reduce_by_key(device, keys, vals, phase)
        into = self._transposed(*out, b2, phase)

        def assemble_body() -> Tuple[BlockmodelCSR, _Degrees]:
            deg = (
                np.bincount(
                    gmap, weights=old_out.astype(np.float64), minlength=b2
                ).astype(WEIGHT_DTYPE),
                np.bincount(
                    gmap, weights=old_in.astype(np.float64), minlength=b2
                ).astype(WEIGHT_DTYPE),
            )
            new_bm = BlockmodelCSR(
                b2, *_csr_direction(*out, b2), *_csr_direction(*into, b2),
                deg[0].copy(), deg[1].copy(),
            )
            return new_bm, deg

        m = max(len(out[0]), 1)
        new_bm, deg = device.execute(
            "merge_relabel_assemble",
            KernelCost(m, ops_per_item=3.0, bytes_moved=8 * 4 * m),
            assemble_body,
            phase,
        )
        self._adopt(new_bm, out, into, deg)
        self._count_update()
        return new_bm
