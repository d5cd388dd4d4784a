"""Blockmodel update: rebuilding M from the current partition.

:func:`rebuild_blockmodel` is the paper's Algorithm 2 executed on the
simulated device — the sequence ``sort_by_key → gather adjacency → map
neighbours to blocks → segmented sort → subsegment-head detection →
prefix scan → segmented reduce`` (Fig. 7), once per direction.

:func:`rebuild_blockmodel_cpu` is the CPU comparison point of Figure 12:
the straightforward edge-iterating rebuild every CPU SBP implementation
performs, written as the per-edge loop it is.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import PartitionError
from ..graph.csr import CSRAdjacency, DiGraphCSR, gather_rows
from ..gpusim.device import Device, KernelCost
from ..gpusim import primitives as prim
from ..types import INDEX_DTYPE, WEIGHT_DTYPE, IndexArray
from .blockmodel import BlockmodelCSR

UPDATE_PHASE = "blockmodel_update"


def _build_direction(
    device: Device,
    adj: CSRAdjacency,
    vmap: np.ndarray,
    src_blocks_sorted: np.ndarray,
    bmap: np.ndarray,
    num_blocks: int,
    phase: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build one CSR direction of the blockmodel (ptr, nbr, wgt)."""
    # Algorithm 2 lines 2-3: concatenate adjacency rows in vmap order.
    work = max(adj.num_entries, 1)
    seg_ptr, nbr, wgt = device.execute(
        "gather_adjacency",
        KernelCost(work_items=work, ops_per_item=2.0, bytes_moved=8 * 3 * work),
        lambda: gather_rows(*adj, vmap),
        phase,
    )
    # Segment id of each adjacency entry = block of its source vertex.
    seg_ids = device.execute(
        "expand_segments",
        KernelCost(work_items=max(len(nbr), 1), ops_per_item=1.0),
        lambda: np.repeat(src_blocks_sorted, np.diff(seg_ptr)),
        phase,
    )
    # Algorithm 2 line 4: map neighbour vertex ids to block ids.
    nbr_blocks = prim.gather(device, bmap, nbr, phase)
    # Line 5: segmented sort by (block, neighbour block).
    seg_ids, nbr_blocks, wgt = prim.segmented_sort(
        device, seg_ids, nbr_blocks, wgt, phase
    )
    # Lines 6-8: subsegment heads -> reduce runs -> pointer scan.
    out_seg, out_nbr, out_wgt = prim.segmented_reduce_by_key(
        device, seg_ids, nbr_blocks, wgt, phase
    )
    counts = prim.bincount(device, out_seg, num_blocks, phase=phase)
    ptr = prim.exclusive_scan(device, counts, phase)
    return (
        ptr.astype(INDEX_DTYPE),
        out_nbr.astype(INDEX_DTYPE),
        out_wgt.astype(WEIGHT_DTYPE),
    )


def rebuild_blockmodel(
    device: Device,
    graph: DiGraphCSR,
    bmap: IndexArray,
    num_blocks: Optional[int] = None,
    phase: str = UPDATE_PHASE,
) -> BlockmodelCSR:
    """Rebuild the CSR blockmodel from scratch (paper Algorithm 2).

    Parameters
    ----------
    device:
        The simulated device executing the primitive kernels.
    graph:
        The input graph (device-resident by convention).
    bmap:
        Current block id per vertex; ids must lie in ``[0, num_blocks)``.
    num_blocks:
        Block count ``B``; defaults to ``bmap.max() + 1``.
    """
    bmap = np.asarray(bmap, dtype=INDEX_DTYPE)
    if len(bmap) != graph.num_vertices:
        raise PartitionError(
            f"bmap length {len(bmap)} != |V|={graph.num_vertices}"
        )
    if num_blocks is None:
        num_blocks = int(bmap.max()) + 1 if len(bmap) else 0
    if len(bmap) and (bmap.min() < 0 or bmap.max() >= num_blocks):
        raise PartitionError("bmap contains block ids outside [0, num_blocks)")

    # Algorithm 2 line 1: sort vertices by block id.
    sorted_blocks, vmap = prim.sort_by_key(
        device, bmap, np.arange(graph.num_vertices, dtype=INDEX_DTYPE), phase
    )

    out_ptr, out_nbr, out_wgt = _build_direction(
        device, graph.out_adj, vmap, sorted_blocks, bmap, num_blocks, phase
    )
    in_ptr, in_nbr, in_wgt = _build_direction(
        device, graph.in_adj, vmap, sorted_blocks, bmap, num_blocks, phase
    )

    # Block degrees: one atomic-histogram pass per direction.
    deg_out = prim.bincount(
        device, bmap, num_blocks, weights=graph.out_degrees(), phase=phase
    ).astype(WEIGHT_DTYPE)
    deg_in = prim.bincount(
        device, bmap, num_blocks, weights=graph.in_degrees(), phase=phase
    ).astype(WEIGHT_DTYPE)

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


def rebuild_blockmodel_cpu(
    graph: DiGraphCSR, bmap: IndexArray, num_blocks: Optional[int] = None
) -> BlockmodelCSR:
    """CPU reference rebuild: iterate every edge (Figure 12's baseline).

    Deliberately written as the sequential per-edge loop a CPU SBP
    implementation performs, so Figure 12's GPU-vs-CPU update comparison
    measures the same algorithmic contrast as the paper.
    """
    bmap = np.asarray(bmap, dtype=INDEX_DTYPE)
    if num_blocks is None:
        num_blocks = int(bmap.max()) + 1 if len(bmap) else 0
    counts: dict[tuple[int, int], int] = {}
    deg_out = np.zeros(num_blocks, dtype=WEIGHT_DTYPE)
    deg_in = np.zeros(num_blocks, dtype=WEIGHT_DTYPE)
    ptr, nbr, wgt = graph.out_adj.ptr, graph.out_adj.nbr, graph.out_adj.wgt
    for v in range(graph.num_vertices):
        bv = int(bmap[v])
        for k in range(int(ptr[v]), int(ptr[v + 1])):
            bu = int(bmap[nbr[k]])
            w = int(wgt[k])
            key = (bv, bu)
            counts[key] = counts.get(key, 0) + w
            deg_out[bv] += w
            deg_in[bu] += w

    if counts:
        keys = np.array(sorted(counts), dtype=INDEX_DTYPE)
        rows, cols = keys[:, 0], keys[:, 1]
        wgts = np.array([counts[(int(r), int(c))] for r, c in keys], dtype=WEIGHT_DTYPE)
    else:
        rows = cols = np.empty(0, dtype=INDEX_DTYPE)
        wgts = np.empty(0, dtype=WEIGHT_DTYPE)
    out_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(rows, minlength=num_blocks)))
    ).astype(INDEX_DTYPE)
    order = np.lexsort((rows, cols))
    in_rows, in_cols, in_wgts = cols[order], rows[order], wgts[order]
    in_ptr = np.concatenate(
        ([0], np.cumsum(np.bincount(in_rows, minlength=num_blocks)))
    ).astype(INDEX_DTYPE)
    return BlockmodelCSR(
        num_blocks=num_blocks,
        out_ptr=out_ptr,
        out_nbr=cols,
        out_wgt=wgts,
        in_ptr=in_ptr,
        in_nbr=in_cols,
        in_wgt=in_wgts,
        deg_out=deg_out,
        deg_in=deg_in,
    )
