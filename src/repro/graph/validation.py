"""Structural validation helpers for graphs and partitions."""

from __future__ import annotations

import numpy as np

from ..errors import GraphValidationError
from ..types import IndexArray, as_index_array
from .csr import DiGraphCSR


def validate_partition(partition: IndexArray, num_vertices: int) -> int:
    """Validate a block-id array and return its block count.

    A valid partition assigns every vertex a block id in ``[0, B)`` where
    ``B = max(partition) + 1``; block ids need not be dense (empty blocks
    are tolerated by the partitioners but flagged here).
    """
    partition = as_index_array(partition)
    if partition.ndim != 1:
        raise GraphValidationError("partition must be one-dimensional")
    if len(partition) != num_vertices:
        raise GraphValidationError(
            f"partition length {len(partition)} != num_vertices {num_vertices}"
        )
    if num_vertices == 0:
        return 0
    if partition.min() < 0:
        raise GraphValidationError("partition contains negative block ids")
    return int(partition.max()) + 1


def partition_is_dense(partition: IndexArray) -> bool:
    """True if every block id in ``[0, max+1)`` is used at least once."""
    partition = as_index_array(partition)
    if len(partition) == 0:
        return True
    b = int(partition.max()) + 1
    return bool(np.all(np.bincount(partition, minlength=b) > 0))


def densify_partition(partition: IndexArray) -> IndexArray:
    """Relabel block ids to remove gaps, preserving relative order."""
    partition = as_index_array(partition)
    if len(partition) == 0:
        return partition.copy()
    used = np.unique(partition)
    remap = np.full(int(used.max()) + 1, -1, dtype=partition.dtype)
    remap[used] = np.arange(len(used), dtype=partition.dtype)
    return remap[partition]


def graph_summary(graph: DiGraphCSR) -> dict:
    """Cheap descriptive statistics used in logs and reports."""
    degrees = graph.degrees()
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "total_edge_weight": graph.total_edge_weight,
        "max_degree": int(degrees.max()) if len(degrees) else 0,
        "mean_degree": float(degrees.mean()) if len(degrees) else 0.0,
        "num_self_loops": int(
            np.sum(
                graph.edge_arrays()[0] == graph.edge_arrays()[1]
            )
        ),
    }

