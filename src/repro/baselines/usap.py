"""uSAP-like baseline (Chang & Huang, HPEC 2023).

uSAP's published signature is (1) an *initial block-merge strategy based
on strongly connected components* — vertices in one SCC start in one
block, collapsing the singleton start and saving early merge iterations —
and (2) *dynamic batch-oriented task-graph parallelism* for vertex moves.
We reproduce (1) exactly with an SCC pass over the input graph (capped so
a giant SCC cannot erase the search space) and model (2) with moderately
sized move batches applied together between blockmodel refreshes.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import DiGraphCSR
from ..types import INDEX_DTYPE
from .common import CPUSBPEngine


def scc_initial_partition(
    graph: DiGraphCSR, max_scc_fraction: float = 0.05
) -> np.ndarray:
    """Initial Bmap from strongly connected components.

    Components larger than ``max_scc_fraction · |V|`` are split back into
    singletons: a giant SCC (typical in the SBPC graphs) would otherwise
    collapse most of the graph into one immutable starting block and
    destroy partition quality, so only small/medium components are fused.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    src, dst, _ = graph.edge_arrays()
    adj = sp.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
    )
    _, labels = connected_components(adj, directed=True, connection="strong")
    labels = labels.astype(INDEX_DTYPE)
    sizes = np.bincount(labels)
    cap = max(1, int(max_scc_fraction * n))
    too_big = sizes[labels] > cap
    # split oversized components back to singletons with fresh labels
    out = labels.copy()
    fresh = int(labels.max()) + 1
    idx = np.flatnonzero(too_big)
    out[idx] = fresh + np.arange(len(idx), dtype=INDEX_DTYPE)
    return np.unique(out, return_inverse=True)[1].astype(INDEX_DTYPE)


class USAPPartitioner(CPUSBPEngine):
    """uSAP-like CPU baseline: SCC-seeded start + batched task-style moves."""

    name = "uSAP"

    def initial_partition(
        self, graph: DiGraphCSR, rng: np.random.Generator
    ) -> np.ndarray:
        return scc_initial_partition(graph)

    def move_batch_size(self, num_vertices: int) -> int:
        # dynamic batching: roughly 64 concurrent move tasks per wave
        return max(1, num_vertices // 64)
