"""Blockmodel package: the CSR blockmodel (and its dense oracle), entropy, ΔMDL, updates."""

from .blockmodel import BlockmodelCSR
from .delta import (
    MoveDeltaContext,
    VertexNeighborhood,
    merge_delta_batch,
    merge_delta_dense,
    move_delta_batch,
    move_delta_dense,
    precompute_block_term_sums,
)
from .dense import DenseBlockmodel
from .incremental import IncrementalBlockmodel
from .entropy import (
    data_log_posterior_csr,
    data_log_posterior_dense,
    description_length,
    entropy_terms,
    h,
    model_description_length,
    null_description_length,
)
from .update import rebuild_blockmodel, rebuild_blockmodel_cpu

__all__ = [
    "BlockmodelCSR",
    "MoveDeltaContext",
    "VertexNeighborhood",
    "merge_delta_batch",
    "merge_delta_dense",
    "move_delta_batch",
    "move_delta_dense",
    "precompute_block_term_sums",
    "DenseBlockmodel",
    "IncrementalBlockmodel",
    "data_log_posterior_csr",
    "data_log_posterior_dense",
    "description_length",
    "entropy_terms",
    "h",
    "model_description_length",
    "null_description_length",
    "rebuild_blockmodel",
    "rebuild_blockmodel_cpu",
]
