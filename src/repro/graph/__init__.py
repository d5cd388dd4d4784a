"""Graph substrate: CSR containers, builders, IO, DC-SBM generation."""

from .builder import build_graph, from_edge_iterable, from_networkx
from .csr import CSRAdjacency, DiGraphCSR, combined_adjacency, gather_rows
from .datasets import (
    CATEGORIES,
    CATEGORY_LABELS,
    SIZES,
    DatasetSpec,
    clear_dataset_cache,
    iter_specs,
    load_dataset,
    normalize_category,
)
from .generators import (
    SBMParams,
    default_average_degree,
    default_num_blocks,
    generate_category_graph,
    generate_dcsbm,
)
from .streaming import (
    cumulative_graphs,
    edge_sample_stream,
    snowball_stream,
)
from .io import (
    load_edge_list,
    load_matrix_market,
    load_snap_edge_list,
    save_matrix_market,
    load_graph_with_truth,
    load_truth_partition,
    save_edge_list,
    save_truth_partition,
)
from .transforms import (
    induced_subgraph,
    largest_weakly_connected_component,
    permute_vertices,
    project_partition,
    remove_self_loops,
    reverse,
    symmetrize,
)
from .validation import (
    densify_partition,
    graph_summary,
    partition_is_dense,
    validate_partition,
)

__all__ = [
    "CSRAdjacency",
    "combined_adjacency",
    "gather_rows",
    "DiGraphCSR",
    "build_graph",
    "from_edge_iterable",
    "from_networkx",
    "CATEGORIES",
    "CATEGORY_LABELS",
    "SIZES",
    "DatasetSpec",
    "clear_dataset_cache",
    "iter_specs",
    "load_dataset",
    "normalize_category",
    "SBMParams",
    "default_average_degree",
    "default_num_blocks",
    "generate_category_graph",
    "generate_dcsbm",
    "cumulative_graphs",
    "edge_sample_stream",
    "snowball_stream",
    "load_edge_list",
    "load_matrix_market",
    "load_snap_edge_list",
    "save_matrix_market",
    "load_graph_with_truth",
    "load_truth_partition",
    "save_edge_list",
    "save_truth_partition",
    "induced_subgraph",
    "largest_weakly_connected_component",
    "permute_vertices",
    "project_partition",
    "remove_self_loops",
    "reverse",
    "symmetrize",
    "densify_partition",
    "graph_summary",
    "partition_is_dense",
    "validate_partition",
]
