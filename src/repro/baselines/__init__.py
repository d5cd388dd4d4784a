"""CPU baseline partitioners modelled on the paper's comparison systems."""

from ..blockmodel.delta import hastings_correction_dense
from .common import CPUSBPEngine, propose_from_blockmodel, vertex_neighborhood
from .edist import CommStats, EDiStPartitioner
from .isbp import ISBPPartitioner, extend_partition, sample_subgraph
from .reference import ReferenceSBP
from .usap import USAPPartitioner, scc_initial_partition

__all__ = [
    "CPUSBPEngine",
    "hastings_correction_dense",
    "propose_from_blockmodel",
    "vertex_neighborhood",
    "CommStats",
    "EDiStPartitioner",
    "ISBPPartitioner",
    "extend_partition",
    "sample_subgraph",
    "ReferenceSBP",
    "USAPPartitioner",
    "scc_initial_partition",
]
