"""Partition-quality metrics: NMI (Table 4), ARI, pairwise P/R."""

from .ari import ari
from .nmi import contingency_table, entropy_of_counts, mutual_information, nmi
from .pairwise import PairwiseScores, pairwise_scores

__all__ = [
    "ari",
    "contingency_table",
    "entropy_of_counts",
    "mutual_information",
    "nmi",
    "PairwiseScores",
    "pairwise_scores",
]
