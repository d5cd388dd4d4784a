"""Quotient (block-level) graph extraction.

Collapses a partitioned graph onto its blocks: vertices become blocks,
edge weights aggregate — the same computation as the blockmodel, exposed
as a first-class graph so downstream tooling (visualisation, coarse
analysis, hierarchical partitioning) can consume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.builder import build_graph
from ..graph.csr import DiGraphCSR
from ..graph.validation import validate_partition
from ..types import INDEX_DTYPE, IndexArray


@dataclass(frozen=True)
class BlockGraph:
    """The quotient graph of a partition.

    Attributes
    ----------
    graph:
        Directed graph over blocks; edge (a, b) weight = total weight of
        original edges from block a to block b (self-loops = intra-block
        weight).
    block_sizes:
        Number of vertices per block.
    """

    graph: DiGraphCSR
    block_sizes: IndexArray

    @property
    def num_blocks(self) -> int:
        return self.graph.num_vertices

    def intra_weight(self, block: int) -> int:
        """Total weight of edges inside *block*."""
        nbr, wgt = self.graph.out_neighbors(block)
        hit = nbr == block
        return int(wgt[hit].sum())


def quotient_graph(graph: DiGraphCSR, partition: IndexArray) -> BlockGraph:
    """Collapse *graph* onto the blocks of *partition*."""
    partition = np.asarray(partition, dtype=INDEX_DTYPE)
    num_blocks = validate_partition(partition, graph.num_vertices)
    if num_blocks == 0:
        return BlockGraph(
            graph=build_graph([], [], num_vertices=0),
            block_sizes=np.empty(0, dtype=INDEX_DTYPE),
        )
    src, dst, wgt = graph.edge_arrays()
    block_graph = build_graph(
        partition[src], partition[dst], wgt, num_vertices=num_blocks
    )
    sizes = np.bincount(partition, minlength=num_blocks).astype(INDEX_DTYPE)
    return BlockGraph(graph=block_graph, block_sizes=sizes)
