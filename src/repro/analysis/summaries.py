"""Per-block and whole-partition descriptive statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..blockmodel.entropy import description_length
from ..blockmodel.update import rebuild_blockmodel
from ..gpusim.device import Device
from ..graph.csr import DiGraphCSR
from ..types import IndexArray
from .block_graph import quotient_graph


@dataclass(frozen=True)
class BlockStats:
    """Statistics of one block of a partition."""

    block_id: int
    size: int
    intra_weight: int  # edge weight with both endpoints in the block
    out_weight: int  # weight leaving the block (excl. intra)
    in_weight: int  # weight entering the block (excl. intra)

    @property
    def cut_weight(self) -> int:
        return self.out_weight + self.in_weight

    @property
    def conductance(self) -> float:
        """Cut weight over total incident weight (0 = perfectly isolated)."""
        total = self.cut_weight + 2 * self.intra_weight
        if total == 0:
            return 0.0
        return self.cut_weight / total


@dataclass(frozen=True)
class PartitionSummary:
    """Whole-partition statistics."""

    num_blocks: int
    num_vertices: int
    total_edge_weight: int
    intra_fraction: float  # share of edge weight inside blocks
    mdl: float
    block_stats: List[BlockStats]

    def size_distribution(self) -> dict:
        sizes = np.array([b.size for b in self.block_stats])
        if len(sizes) == 0:
            return {"min": 0, "median": 0, "max": 0, "cv": 0.0}
        return {
            "min": int(sizes.min()),
            "median": int(np.median(sizes)),
            "max": int(sizes.max()),
            "cv": float(sizes.std() / sizes.mean()) if sizes.mean() else 0.0,
        }


def summarize_partition(
    graph: DiGraphCSR, partition: IndexArray
) -> PartitionSummary:
    """Compute per-block and aggregate statistics of *partition*."""
    bg = quotient_graph(graph, partition)
    b = bg.num_blocks
    stats: List[BlockStats] = []
    total_intra = 0
    for block in range(b):
        nbr_out, w_out = bg.graph.out_neighbors(block)
        nbr_in, w_in = bg.graph.in_neighbors(block)
        intra = int(w_out[nbr_out == block].sum())
        out_w = int(w_out[nbr_out != block].sum())
        in_w = int(w_in[nbr_in != block].sum())
        total_intra += intra
        stats.append(
            BlockStats(
                block_id=block,
                size=int(bg.block_sizes[block]),
                intra_weight=intra,
                out_weight=out_w,
                in_weight=in_w,
            )
        )
    total_weight = graph.total_edge_weight
    if b:
        model = rebuild_blockmodel(Device(), graph, partition, b)
        mdl = description_length(model, graph.num_vertices, total_weight)
    else:
        mdl = 0.0
    return PartitionSummary(
        num_blocks=b,
        num_vertices=graph.num_vertices,
        total_edge_weight=total_weight,
        intra_fraction=(total_intra / total_weight) if total_weight else 0.0,
        mdl=mdl,
        block_stats=stats,
    )


def summary_markdown(summary: PartitionSummary, top: int = 10) -> str:
    """Human-readable report (largest *top* blocks detailed)."""
    dist = summary.size_distribution()
    lines = [
        f"partition: {summary.num_blocks} blocks over "
        f"{summary.num_vertices} vertices",
        f"MDL: {summary.mdl:.1f}   intra-block edge share: "
        f"{summary.intra_fraction:.1%}",
        f"block sizes: min={dist['min']} median={dist['median']} "
        f"max={dist['max']} (cv={dist['cv']:.2f})",
        "",
        "| block | size | intra W | cut W | conductance |",
        "|---|---|---|---|---|",
    ]
    ranked = sorted(summary.block_stats, key=lambda s: -s.size)[:top]
    for s in ranked:
        lines.append(
            f"| {s.block_id} | {s.size} | {s.intra_weight} | "
            f"{s.cut_weight} | {s.conductance:.3f} |"
        )
    return "\n".join(lines)
