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
  and merged into the touched CSR rows with the same segmented-sort /
  segmented-reduce-by-key primitives Algorithm 2 uses, so device cost
  accounting stays honest;
* rows live in *padded* storage (per-row slack capacity) so fill-in
  usually lands in place; a row overflowing its capacity triggers an
  amortized capacity-doubling compaction pass;
* block degrees are patched with two signed histograms over the movers'
  exact integer degrees.

Nothing else is cached across batches: the vertex-move ΔMDL
(:func:`~repro.blockmodel.delta.move_delta_batch`) reads only the cells
and degrees a move touches, so there are no per-block term sums to keep
in step with the blockmodel.

Because the blockmodel arrays are exact integers, delta application is
*exact*, not approximate: an incremental run is byte-identical to a
rebuild-based run, which the integrity auditor (comparing against a
from-scratch rebuild) verifies on every audited site.

Batches touching more than :data:`FALLBACK_FRACTION` of all blocks
fall back to the full rebuild — at that density Algorithm 2's
sequential-memory passes beat scattered row surgery.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import PartitionError
from ..gpusim.device import Device, KernelCost
from ..gpusim import primitives as prim
from ..graph.csr import DiGraphCSR
from ..obs import NULL_OBS, Observability
from ..types import FLOAT_DTYPE, INDEX_DTYPE, WEIGHT_DTYPE, IndexArray
from .blockmodel import BlockmodelCSR
from .update import rebuild_blockmodel

__all__ = ["IncrementalBlockmodel"]

#: A batch touching more than this fraction of the blocks is applied
#: with one full rebuild instead of the sparse patch.
FALLBACK_FRACTION = 0.9
#: Slack entries appended to every row when padded storage is (re)built.
_ROW_SLACK = 16
#: Minimum capacity a regrown row receives.
_MIN_CAP = 16
#: Physical storage may exceed the live capacity footprint by this
#: factor (relocated rows leave holes) before a compaction repacks it.
#: Doubling growth bounds holes at ~1× the footprint, so the limit must
#: sit below 2 for compaction to ever trigger.
_FRAG_LIMIT = 1.5


class _PaddedRows:
    """One CSR direction stored with per-row slack capacity.

    ``start/cap/nnz`` describe each row's slot range inside ``keys/vals``;
    only the first ``nnz`` slots of a row are live.  Rows keep their
    columns sorted ascending, so compaction is a pure gather.
    """

    __slots__ = ("num_rows", "start", "cap", "nnz", "keys", "vals")

    def __init__(
        self, ptr: np.ndarray, nbr: np.ndarray, wgt: np.ndarray, num_rows: int
    ) -> None:
        nnz = (ptr[1:] - ptr[:-1]).astype(INDEX_DTYPE)
        cap = nnz + _ROW_SLACK
        start = np.zeros(num_rows, dtype=INDEX_DTYPE)
        if num_rows:
            np.cumsum(cap[:-1], out=start[1:])
        total = int(cap.sum())
        keys = np.zeros(total, dtype=INDEX_DTYPE)
        vals = np.zeros(total, dtype=WEIGHT_DTYPE)
        if len(nbr):
            inner = np.arange(len(nbr), dtype=INDEX_DTYPE) - np.repeat(
                ptr[:-1], nnz
            )
            pos = np.repeat(start, nnz) + inner
            keys[pos] = nbr
            vals[pos] = wgt
        self.num_rows = num_rows
        self.start, self.cap, self.nnz = start, cap, nnz
        self.keys, self.vals = keys, vals

    # -- live-entry access ---------------------------------------------
    def _live_index(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        lengths = self.nnz[rows]
        seg_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(INDEX_DTYPE)
        total = int(seg_ptr[-1])
        if total == 0:
            return seg_ptr, np.empty(0, dtype=INDEX_DTYPE), lengths
        inner = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
            seg_ptr[:-1], lengths
        )
        idx = np.repeat(self.start[rows], lengths) + inner
        return seg_ptr, idx, lengths

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live entries of *rows* as ``(seg_ptr, keys, vals)``."""
        seg_ptr, idx, _ = self._live_index(rows)
        return seg_ptr, self.keys[idx], self.vals[idx]

    # -- growth / compaction -------------------------------------------
    def ensure_capacity(self, rows: np.ndarray, needed: np.ndarray) -> bool:
        """Grow rows whose new length exceeds capacity.

        An overflowing row is *relocated*: it gets ``max(2 · needed,
        _MIN_CAP)`` slots appended at the end of storage and its old
        slots become a hole — one bulk memcpy plus the moved rows'
        entries, not a full repack.  When the holes exceed
        ``_FRAG_LIMIT`` × the live footprint, a compaction pass repacks
        the whole storage.  Returns True when a compaction ran.

        Contract: the caller must ``write_rows`` every grown row right
        after this call — a relocated row's new slots start out empty.
        """
        over = needed > self.cap[rows]
        if not np.any(over):
            return False
        grow_rows = rows[over]
        grow_cap = np.maximum(2 * needed[over], _MIN_CAP).astype(INDEX_DTYPE)
        old_total = len(self.keys)
        self.start[grow_rows] = old_total + np.concatenate(
            ([0], np.cumsum(grow_cap[:-1]))
        ).astype(INDEX_DTYPE)
        self.cap[grow_rows] = grow_cap
        new_total = old_total + int(grow_cap.sum())
        new_keys = np.zeros(new_total, dtype=INDEX_DTYPE)
        new_vals = np.zeros(new_total, dtype=WEIGHT_DTYPE)
        new_keys[:old_total] = self.keys
        new_vals[:old_total] = self.vals
        self.keys, self.vals = new_keys, new_vals
        # moved rows are about to be overwritten by write_rows, so their
        # live entries need not be copied into the new slots
        footprint = int(self.cap.sum())
        if new_total <= _FRAG_LIMIT * footprint:
            return False
        # compaction: repack every row at its current capacity
        all_rows = np.arange(self.num_rows, dtype=INDEX_DTYPE)
        seg_ptr, idx, lengths = self._live_index(all_rows)
        new_start = np.zeros(self.num_rows, dtype=INDEX_DTYPE)
        if self.num_rows:
            np.cumsum(self.cap[:-1], out=new_start[1:])
        new_keys = np.zeros(footprint, dtype=INDEX_DTYPE)
        new_vals = np.zeros(footprint, dtype=WEIGHT_DTYPE)
        if len(idx):
            inner = np.arange(len(idx), dtype=INDEX_DTYPE) - np.repeat(
                seg_ptr[:-1], lengths
            )
            pos = np.repeat(new_start, lengths) + inner
            new_keys[pos] = self.keys[idx]
            new_vals[pos] = self.vals[idx]
        self.start = new_start
        self.keys, self.vals = new_keys, new_vals
        return True

    def write_rows(
        self,
        rows: np.ndarray,
        seg_ptr: np.ndarray,
        keys: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Replace the live entries of *rows* (capacities must suffice)."""
        lengths = (seg_ptr[1:] - seg_ptr[:-1]).astype(INDEX_DTYPE)
        if len(keys):
            inner = np.arange(len(keys), dtype=INDEX_DTYPE) - np.repeat(
                seg_ptr[:-1], lengths
            )
            pos = np.repeat(self.start[rows], lengths) + inner
            self.keys[pos] = keys
            self.vals[pos] = vals
        self.nnz[rows] = lengths

    def compact(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Densify into plain CSR ``(ptr, nbr, wgt)`` arrays."""
        all_rows = np.arange(self.num_rows, dtype=INDEX_DTYPE)
        seg_ptr, idx, _ = self._live_index(all_rows)
        return seg_ptr, self.keys[idx], self.vals[idx]


class IncrementalBlockmodel:
    """Maintains the CSR blockmodel across accepted move batches.

    One instance is created per plateau attempt (so a faulted, retried
    attempt never sees stale state) and threaded through the block-merge
    and vertex-move phases.  ``reset`` / ``ensure`` (re)attach it to a
    compact :class:`BlockmodelCSR`; ``apply_batch`` and
    ``apply_merge_relabel`` advance it; ``update_time_s`` accumulates the
    wall time of every maintenance operation for the profiler's
    ``blockmodel_update_s`` split.
    """

    def __init__(
        self,
        device: Device,
        graph: DiGraphCSR,
        *,
        rebuild_fn: Callable[..., BlockmodelCSR] = rebuild_blockmodel,
        fallback_fraction: float = FALLBACK_FRACTION,
        obs: Optional[Observability] = None,
    ) -> None:
        self.device = device
        self.graph = graph
        self.rebuild_fn = rebuild_fn
        self.fallback_fraction = float(fallback_fraction)
        self.obs = obs or NULL_OBS
        self.update_time_s = 0.0
        self.incremental_updates = 0
        self.full_rebuilds = 0
        self.compactions = 0
        self.fallbacks = 0
        self._bm: Optional[BlockmodelCSR] = None
        self._out: Optional[_PaddedRows] = None
        self._in: Optional[_PaddedRows] = None
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
        """Adopt *blockmodel* as the new ground truth (padded lazily)."""
        self._bm = blockmodel
        self._out = None
        self._in = None

    def ensure(self, blockmodel: BlockmodelCSR) -> None:
        """Attach to *blockmodel* unless it is already the tracked one."""
        if self._bm is not blockmodel:
            self.reset(blockmodel)

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        self.obs.count(name, amount, help=help_text)

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

        Returns the new blockmodel.  Falls back to a full rebuild when
        the batch touches more than ``fallback_fraction`` of all blocks.
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
        old_bm = self._bm
        assert old_bm is not None
        num_blocks = old_bm.num_blocks
        movers = np.asarray(movers, dtype=INDEX_DTYPE)
        r = np.asarray(old_blocks, dtype=INDEX_DTYPE)
        s = np.asarray(new_blocks, dtype=INDEX_DTYPE)
        touched = np.unique(np.concatenate((r, s)))

        if len(touched) > self.fallback_fraction * num_blocks:
            self.fallbacks += 1
            self._count(
                "blockmodel_incremental_fallbacks_total",
                "incremental batches that fell back to a full rebuild",
            )
            return self._rebuild(bmap, num_blocks, phase)

        if self._out is None:
            self._build_padded()

        d_keys, d_vals = self._delta_cells(bmap, movers, r, s, num_blocks, phase)

        # ---- merge deltas into both padded directions ----------------
        d_rows = d_keys // num_blocks
        d_cols = d_keys % num_blocks
        self._merge_direction(self._out, num_blocks, d_rows, d_cols, d_vals, phase)
        in_keys = d_cols * num_blocks + d_rows
        in_keys, in_vals = prim.sort_by_key(self.device, in_keys, d_vals, phase)
        self._merge_direction(
            self._in,
            num_blocks,
            in_keys // num_blocks,
            in_keys % num_blocks,
            in_vals,
            phase,
        )

        # ---- patch block degrees (exact integer histograms) ----------
        deg_out, deg_in = self._patch_degrees(old_bm, movers, r, s, num_blocks, phase)

        new_bm = self._materialize(num_blocks, deg_out, deg_in, phase)
        self._bm = new_bm
        self.incremental_updates += 1
        self._count(
            "blockmodel_incremental_updates_total",
            "accepted batches applied as sparse blockmodel deltas",
        )
        return new_bm

    def _rebuild(
        self, bmap: IndexArray, num_blocks: int, phase: Optional[str]
    ) -> BlockmodelCSR:
        """Full Algorithm-2 rebuild; resets the padded storage."""
        bm = self.rebuild_fn(self.device, self.graph, bmap, num_blocks, phase)
        self.reset(bm)
        self.full_rebuilds += 1
        self._count(
            "blockmodel_full_rebuilds_total",
            "full Algorithm-2 blockmodel rebuilds",
        )
        return bm

    # ------------------------------------------------------------------
    def _build_padded(self) -> None:
        bm = self._bm
        assert bm is not None

        def body() -> Tuple[_PaddedRows, _PaddedRows]:
            return (
                _PaddedRows(bm.out_ptr, bm.out_nbr, bm.out_wgt, bm.num_blocks),
                _PaddedRows(bm.in_ptr, bm.in_nbr, bm.in_wgt, bm.num_blocks),
            )

        n = max(bm.num_entries, 1)
        self._out, self._in = self.device.execute(
            "pad_blockmodel_rows",
            KernelCost(n, ops_per_item=2.0, bytes_moved=8 * 4 * n),
            body,
            phase=None,
        )

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
                o_ptr = graph.out_adj.ptr
                o_lo = o_ptr[movers]
                o_len = o_ptr[movers + 1] - o_lo
                o_seg = np.repeat(np.arange(len(movers), dtype=INDEX_DTYPE), o_len)
                o_idx = (
                    np.repeat(o_lo, o_len)
                    + np.arange(int(o_len.sum()), dtype=INDEX_DTYPE)
                    - np.repeat(np.concatenate(([0], np.cumsum(o_len)))[:-1], o_len)
                )
                o_dst = graph.out_adj.nbr[o_idx]
                o_w = graph.out_adj.wgt[o_idx].astype(WEIGHT_DTYPE)
                dst_new = bmap[o_dst]
                dst_old = np.where(is_mover[o_dst], old_of[o_dst], dst_new)
                rows_old, rows_new = r[o_seg], s[o_seg]

                i_ptr = graph.in_adj.ptr
                i_lo = i_ptr[movers]
                i_len = i_ptr[movers + 1] - i_lo
                i_seg = np.repeat(np.arange(len(movers), dtype=INDEX_DTYPE), i_len)
                i_idx = (
                    np.repeat(i_lo, i_len)
                    + np.arange(int(i_len.sum()), dtype=INDEX_DTYPE)
                    - np.repeat(np.concatenate(([0], np.cumsum(i_len)))[:-1], i_len)
                )
                i_src = graph.in_adj.nbr[i_idx]
                keep = ~is_mover[i_src]
                i_src, i_seg = i_src[keep], i_seg[keep]
                i_w = graph.in_adj.wgt[i_idx][keep].astype(WEIGHT_DTYPE)
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

    def _merge_direction(
        self,
        padded: _PaddedRows,
        num_blocks: int,
        d_rows: np.ndarray,
        d_cols: np.ndarray,
        d_vals: np.ndarray,
        phase: Optional[str],
    ) -> None:
        """Fold sorted per-cell deltas into one padded CSR direction.

        Two tiers: delta cells whose column already exists in the row are
        applied with one in-place scatter-add (the common case — no
        structural change); only rows that gain a column (fill-in) or
        lose one (an entry reduced to zero) go through the segmented
        re-sort, which keeps the expensive path proportional to actual
        structural churn rather than to the touched-row footprint.
        """
        device = self.device
        if len(d_rows) == 0:
            return

        def locate_body():
            # d_rows is sorted (deltas arrive keyed by row*B+col), so the
            # unique rows fall out of one neighbour comparison.
            first = np.empty(len(d_rows), dtype=bool)
            first[0] = True
            np.not_equal(d_rows[1:], d_rows[:-1], out=first[1:])
            rows = d_rows[first]
            seg_ptr, idx, lengths = padded._live_index(rows)
            seg_live = np.repeat(
                np.arange(len(rows), dtype=INDEX_DTYPE), lengths
            )
            # Composite (touched-row index, column) keys are globally
            # sorted on both sides, so one searchsorted locates every
            # delta cell — the vectorized per-thread binary search.
            comp_live = seg_live * num_blocks + padded.keys[idx]
            seg_d = np.searchsorted(rows, d_rows).astype(INDEX_DTYPE)
            comp_d = seg_d * num_blocks + d_cols
            pos = np.searchsorted(comp_live, comp_d)
            if len(comp_live):
                safe = np.minimum(pos, len(comp_live) - 1)
                hit = (pos < len(comp_live)) & (comp_live[safe] == comp_d)
            else:
                hit = np.zeros(len(comp_d), dtype=bool)
            hit_slots = idx[pos[hit]]
            padded.vals[hit_slots] += d_vals[hit]
            updated = padded.vals[hit_slots]
            miss = ~hit
            if (len(updated) and updated.min() < 0) or (
                np.any(miss) and d_vals[miss].min() < 0
            ):
                raise PartitionError(
                    "incremental blockmodel desync: negative entry after "
                    "delta application — the deltas no longer match the "
                    "tracked blockmodel"
                )
            zero_rows = d_rows[hit][updated == 0]
            structural = np.unique(np.concatenate((zero_rows, d_rows[miss])))
            return structural, d_rows[miss], d_cols[miss], d_vals[miss]

        n = max(len(d_rows), 1)
        structural, ins_rows, ins_cols, ins_vals = device.execute(
            "apply_delta_cells",
            KernelCost(n, ops_per_item=4.0, bytes_moved=8 * 4 * n),
            locate_body,
            phase,
        )
        if len(structural) == 0:
            return

        def gather_body():
            # insert cells grouped by row (ins_rows is sorted); rows with
            # only deletions contribute zero inserts but still re-pack.
            seg_ptr, keys, vals = padded.gather(structural)
            d_starts = np.searchsorted(ins_rows, structural, side="left")
            d_ends = np.searchsorted(ins_rows, structural, side="right")
            d_len = (d_ends - d_starts).astype(INDEX_DTYPE)
            old_len = (seg_ptr[1:] - seg_ptr[:-1]).astype(INDEX_DTYPE)
            tot_len = old_len + d_len
            out_ptr = np.concatenate(([0], np.cumsum(tot_len))).astype(INDEX_DTYPE)
            total = int(out_ptr[-1])
            out_keys = np.empty(total, dtype=INDEX_DTYPE)
            out_vals = np.empty(total, dtype=WEIGHT_DTYPE)
            if int(old_len.sum()):
                inner = np.arange(int(old_len.sum()), dtype=INDEX_DTYPE) - np.repeat(
                    seg_ptr[:-1], old_len
                )
                pos = np.repeat(out_ptr[:-1], old_len) + inner
                out_keys[pos] = keys
                out_vals[pos] = vals
            if int(d_len.sum()):
                inner = np.arange(int(d_len.sum()), dtype=INDEX_DTYPE) - np.repeat(
                    np.concatenate(([0], np.cumsum(d_len)))[:-1], d_len
                )
                pos = np.repeat(out_ptr[:-1] + old_len, d_len) + inner
                src = np.repeat(d_starts, d_len) + inner
                out_keys[pos] = ins_cols[src]
                out_vals[pos] = ins_vals[src]
            # Composite (segment · num_blocks + column) keys turn the
            # segmented sort into one single-key radix sort.
            seg_rep = np.repeat(
                np.arange(len(structural), dtype=INDEX_DTYPE), tot_len
            )
            return seg_rep * num_blocks + out_keys, out_vals

        m = max(len(ins_rows) + len(structural), 1)
        comp, vals = device.execute(
            "gather_padded_rows",
            KernelCost(m, ops_per_item=3.0, bytes_moved=8 * 4 * m),
            gather_body,
            phase,
        )
        comp, vals = prim.sort_by_key(device, comp, vals, phase)

        def scatter_body() -> None:
            # Inserted columns are new to their rows and live columns are
            # unique, so after the sort there are no duplicate keys to
            # reduce — just drop the zeroed entries and re-pack.
            keys = comp % num_blocks
            seg_ids = comp // num_blocks
            live = vals != 0
            seg_live = seg_ids[live]
            counts = np.bincount(seg_live, minlength=len(structural)).astype(
                INDEX_DTYPE
            )
            if padded.ensure_capacity(structural, counts):
                self.compactions += 1
                self._count(
                    "blockmodel_compactions_total",
                    "padded-row compaction passes (row capacity growth)",
                )
            new_ptr = np.concatenate(([0], np.cumsum(counts))).astype(INDEX_DTYPE)
            padded.write_rows(structural, new_ptr, keys[live], vals[live])

        k = max(len(comp), 1)
        device.execute(
            "scatter_padded_rows",
            KernelCost(k, ops_per_item=2.0, bytes_moved=8 * 4 * k),
            scatter_body,
            phase,
        )

    def _patch_degrees(
        self,
        old_bm: BlockmodelCSR,
        movers: np.ndarray,
        r: np.ndarray,
        s: np.ndarray,
        num_blocks: int,
        phase: Optional[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        def body() -> Tuple[np.ndarray, np.ndarray]:
            d_out_m = self._vertex_deg_out[movers].astype(np.float64)
            d_in_m = self._vertex_deg_in[movers].astype(np.float64)
            idx = np.concatenate((r, s))
            deg_out = old_bm.deg_out + np.bincount(
                idx,
                weights=np.concatenate((-d_out_m, d_out_m)),
                minlength=num_blocks,
            ).astype(WEIGHT_DTYPE)
            deg_in = old_bm.deg_in + np.bincount(
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

    def _materialize(
        self,
        num_blocks: int,
        deg_out: np.ndarray,
        deg_in: np.ndarray,
        phase: Optional[str],
    ) -> BlockmodelCSR:
        out_store, in_store = self._out, self._in
        assert out_store is not None and in_store is not None

        def body() -> BlockmodelCSR:
            out_ptr, out_nbr, out_wgt = out_store.compact()
            in_ptr, in_nbr, in_wgt = in_store.compact()
            return BlockmodelCSR(
                num_blocks=num_blocks,
                out_ptr=out_ptr,
                out_nbr=out_nbr,
                out_wgt=out_wgt,
                in_ptr=in_ptr,
                in_nbr=in_nbr,
                in_wgt=in_wgt,
                deg_out=deg_out,
                deg_in=deg_in,
            )

        n = max(int(out_store.nnz.sum()) + int(in_store.nnz.sum()), 1)
        return self.device.execute(
            "compact_blockmodel",
            KernelCost(n, ops_per_item=1.0, bytes_moved=8 * 3 * n),
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
        ``remap[labels]`` of :func:`~repro.core.block_merge.apply_merges`).
        Re-keys the existing nnz entries and sort-reduces them —
        O(nnz log nnz) instead of Algorithm 2's O(E log E) — and folds
        the degree arrays with two histograms.  Byte-identical to a full
        rebuild under the relabelled assignment.
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
        assert old is not None
        device = self.device
        b2 = int(new_num_blocks)
        gmap = np.asarray(gmap, dtype=INDEX_DTYPE)

        def rekey_body() -> Tuple[np.ndarray, np.ndarray]:
            lengths = old.out_ptr[1:] - old.out_ptr[:-1]
            rows = np.repeat(np.arange(old.num_blocks, dtype=INDEX_DTYPE), lengths)
            keys = gmap[rows] * b2 + gmap[old.out_nbr]
            return keys, old.out_wgt.astype(WEIGHT_DTYPE, copy=True)

        n = max(old.num_entries, 1)
        keys, vals = device.execute(
            "merge_relabel_keys",
            KernelCost(n, ops_per_item=3.0, bytes_moved=8 * 3 * n),
            rekey_body,
            phase,
        )
        keys, vals = prim.sort_by_key(device, keys, vals, phase)
        ukeys, sums = prim.reduce_by_key(device, keys, vals, phase)

        def assemble_body() -> BlockmodelCSR:
            out_rows = (ukeys // b2).astype(INDEX_DTYPE)
            out_cols = (ukeys % b2).astype(INDEX_DTYPE)
            out_wgt = sums.astype(WEIGHT_DTYPE, copy=False)
            out_ptr = np.concatenate(
                ([0], np.cumsum(np.bincount(out_rows, minlength=b2)))
            ).astype(INDEX_DTYPE)
            order = prim.composite_argsort(out_cols, out_rows)
            in_rows = out_cols[order]
            in_ptr = np.concatenate(
                ([0], np.cumsum(np.bincount(in_rows, minlength=b2)))
            ).astype(INDEX_DTYPE)
            deg_out = np.bincount(
                gmap, weights=old.deg_out.astype(np.float64), minlength=b2
            ).astype(WEIGHT_DTYPE)
            deg_in = np.bincount(
                gmap, weights=old.deg_in.astype(np.float64), minlength=b2
            ).astype(WEIGHT_DTYPE)
            return BlockmodelCSR(
                num_blocks=b2,
                out_ptr=out_ptr,
                out_nbr=out_cols,
                out_wgt=out_wgt,
                in_ptr=in_ptr,
                in_nbr=out_rows[order].astype(INDEX_DTYPE),
                in_wgt=out_wgt[order],
                deg_out=deg_out,
                deg_in=deg_in,
            )

        m = max(len(ukeys), 1)
        new_bm = device.execute(
            "merge_relabel_assemble",
            KernelCost(m, ops_per_item=3.0, bytes_moved=8 * 4 * m),
            assemble_body,
            phase,
        )
        self.reset(new_bm)
        self.incremental_updates += 1
        self._count(
            "blockmodel_incremental_updates_total",
            "accepted batches applied as sparse blockmodel deltas",
        )
        return new_bm
