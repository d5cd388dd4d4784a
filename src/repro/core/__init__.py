"""GSAP core: proposals, phases, golden-section search, driver."""

from .block_merge import (
    BlockMergeOutcome,
    apply_merges,
    run_block_merge_phase,
    select_best_proposals,
)
from .golden_section import GoldenSectionSearch
from .hierarchy import HierarchicalGSAP, HierarchyLevel, HierarchyResult
from .mh import accept_moves
from .partitioner import GSAPPartitioner, partition_graph
from .proposals import (
    ProposalBatch,
    combined_block_adjacency,
    combined_vertex_adjacency,
    propose_block_merges,
    propose_vertex_moves,
)
from .result import PartitionResult
from .streaming import StreamingGSAP, StreamingStageResult
from .state import PartitionSnapshot, PhaseTimings, ProposalStats
from .vertex_move import (
    VertexMoveOutcome,
    build_move_context,
    gather_adjacency_rows,
    run_vertex_move_phase,
)

__all__ = [
    "BlockMergeOutcome",
    "apply_merges",
    "run_block_merge_phase",
    "select_best_proposals",
    "GoldenSectionSearch",
    "HierarchicalGSAP",
    "HierarchyLevel",
    "HierarchyResult",
    "accept_moves",
    "GSAPPartitioner",
    "partition_graph",
    "ProposalBatch",
    "combined_block_adjacency",
    "combined_vertex_adjacency",
    "propose_block_merges",
    "propose_vertex_moves",
    "PartitionResult",
    "StreamingGSAP",
    "StreamingStageResult",
    "PartitionSnapshot",
    "PhaseTimings",
    "ProposalStats",
    "VertexMoveOutcome",
    "build_move_context",
    "gather_adjacency_rows",
    "run_vertex_move_phase",
]
