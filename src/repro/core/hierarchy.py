"""Hierarchical (nested) stochastic block partitioning.

Peixoto's nested blockmodel observes that the block graph of an SBP
partition is itself a graph with community structure; recursively
partitioning it yields a hierarchy of progressively coarser views —
useful both for multi-scale analysis and because upper levels regularise
the resolution limit of flat SBP.

:class:`HierarchicalGSAP` implements the greedy variant: run GSAP on the
input graph, collapse to the quotient graph, and repeat while the
quotient keeps meaningful structure (more than ``min_top_blocks`` blocks
and a genuine MDL reduction at the level below).  Every level's
partition can be projected back to vertex space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..analysis.block_graph import quotient_graph
from ..graph.transforms import remove_self_loops
from ..config import SBPConfig
from ..errors import PartitionError
from ..graph.csr import DiGraphCSR
from ..gpusim.device import A4000, Device
from ..types import IndexArray
from .partitioner import GSAPPartitioner
from .result import PartitionResult


@dataclass(frozen=True)
class HierarchyLevel:
    """One level of the nested partition.

    ``partition`` maps the level's *input* nodes (vertices at level 0,
    level-(k-1) blocks for k > 0) to this level's blocks.
    """

    level: int
    num_input_nodes: int
    num_blocks: int
    mdl: float
    partition: IndexArray


@dataclass
class HierarchyResult:
    """A full nested partition."""

    levels: List[HierarchyLevel] = field(default_factory=list)
    base_result: Optional[PartitionResult] = None

    @property
    def depth(self) -> int:
        return len(self.levels)

    def vertex_partition(self, level: int) -> IndexArray:
        """Project *level*'s blocks down to per-vertex labels."""
        if not (0 <= level < self.depth):
            raise PartitionError(
                f"level {level} out of range [0, {self.depth})"
            )
        labels = self.levels[0].partition.copy()
        for k in range(1, level + 1):
            labels = self.levels[k].partition[labels]
        return labels

    def block_counts(self) -> List[int]:
        return [lvl.num_blocks for lvl in self.levels]


class HierarchicalGSAP:
    """Greedy nested SBP built on :class:`GSAPPartitioner`."""

    def __init__(
        self,
        config: Optional[SBPConfig] = None,
        device: Optional[Device] = None,
        max_levels: int = 8,
        min_top_blocks: int = 2,
    ) -> None:
        if max_levels < 1:
            raise PartitionError("max_levels must be >= 1")
        if min_top_blocks < 1:
            raise PartitionError("min_top_blocks must be >= 1")
        self.config = config or SBPConfig()
        self.device = device or Device(A4000)
        self.max_levels = max_levels
        self.min_top_blocks = min_top_blocks

    def partition(self, graph: DiGraphCSR) -> HierarchyResult:
        """Build the hierarchy bottom-up."""
        result = HierarchyResult()
        current = graph
        for level in range(self.max_levels):
            partitioner = GSAPPartitioner(
                self.config.replace(seed=self.config.seed + level),
                device=self.device,
            )
            flat = partitioner.partition(current)
            if level == 0:
                result.base_result = flat
            result.levels.append(
                HierarchyLevel(
                    level=level,
                    num_input_nodes=current.num_vertices,
                    num_blocks=flat.num_blocks,
                    mdl=flat.mdl,
                    partition=flat.partition.copy(),
                )
            )
            if flat.num_blocks <= self.min_top_blocks:
                break
            if flat.num_blocks >= current.num_vertices:
                break  # no coarsening achieved; stop
            # Upper levels infer *super*-structure, which lives in the
            # inter-block connectivity; the quotient's self-loops carry
            # the intra-block mass already explained one level down and
            # would otherwise swamp the signal, so they are dropped.
            coarse = remove_self_loops(
                quotient_graph(current, flat.partition).graph
            )
            if coarse.num_edges == 0:
                break  # blocks are mutually disconnected; nothing above
            current = coarse
        return result
