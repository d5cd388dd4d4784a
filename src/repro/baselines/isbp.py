"""I-SBP-like baseline (Wanye et al., HPEC 2023).

I-SBP integrates three published heuristics:

* **sampling** (F-SBP, HPEC 2019): partition a vertex sample first, then
  extend the sample's labels to the full graph by neighbour plurality;
* **hybrid MCMC / asynchronous Gibbs** (H-SBP, ICPP 2022): vertex moves
  are evaluated in large asynchronous batches;
* **aggressive merging** (Faster-SBP, HPEC 2021): a larger first-step
  block-count reduction to cut the number of outer iterations.

This engine reproduces all three signatures on top of the shared CPU SBP
machinery.  Like the original (which "failed" on two Table 3/4 entries),
the sampling extension can mislabel boundary vertices on hard categories —
an accuracy/runtime trade the paper's Table 4 comments on.
"""

from __future__ import annotations

import numpy as np

from ..core.result import PartitionResult
from ..errors import PartitionError
from ..graph.builder import build_graph
from ..graph.csr import DiGraphCSR
from ..rng import make_rng
from ..types import INDEX_DTYPE
from .common import CPUSBPEngine

#: share of the vertices partitioned in stage 1 (F-SBP's sample)
SAMPLE_FRACTION = 0.5
#: stage 1's block-count reduction rate (Faster-SBP's aggressive merge)
AGGRESSIVE_RATE = 0.6


def sample_subgraph(
    graph: DiGraphCSR, fraction: float, rng: np.random.Generator
) -> tuple[DiGraphCSR, np.ndarray]:
    """Degree-weighted vertex sample and its induced subgraph.

    Returns ``(subgraph, sampled_vertices)``; subgraph vertex ``i``
    corresponds to ``sampled_vertices[i]``.  Degree weighting preserves
    community cores, the property F-SBP's sampling relies on.
    """
    n = graph.num_vertices
    k = max(1, int(round(fraction * n)))
    degrees = graph.degrees().astype(np.float64) + 1.0
    probs = degrees / degrees.sum()
    sampled = np.sort(rng.choice(n, size=k, replace=False, p=probs))
    inverse = np.full(n, -1, dtype=INDEX_DTYPE)
    inverse[sampled] = np.arange(k, dtype=INDEX_DTYPE)
    src, dst, wgt = graph.edge_arrays()
    keep = (inverse[src] >= 0) & (inverse[dst] >= 0)
    sub = build_graph(
        inverse[src[keep]], inverse[dst[keep]], wgt[keep], num_vertices=k
    )
    return sub, sampled


def extend_partition(
    graph: DiGraphCSR,
    sampled: np.ndarray,
    sample_partition: np.ndarray,
    num_blocks: int,
    rng: np.random.Generator,
    rounds: int = 3,
) -> np.ndarray:
    """Propagate sample labels to the full graph by neighbour plurality.

    Unlabelled vertices repeatedly adopt the weight-plurality block of
    their labelled neighbours; stragglers with no labelled neighbour get
    a random block after the final round.
    """
    n = graph.num_vertices
    bmap = np.full(n, -1, dtype=INDEX_DTYPE)
    bmap[sampled] = sample_partition
    src, dst, wgt = graph.edge_arrays()
    for _ in range(rounds):
        unlabeled = bmap < 0
        if not unlabeled.any():
            break
        votes = np.zeros((n, num_blocks), dtype=np.float64) if n * num_blocks <= 5_000_000 else None
        if votes is not None:
            ok = bmap[dst] >= 0
            np.add.at(votes, (src[ok], bmap[dst[ok]]), wgt[ok])
            ok = bmap[src] >= 0
            np.add.at(votes, (dst[ok], bmap[src[ok]]), wgt[ok])
            has_vote = votes.sum(axis=1) > 0
            adopt = unlabeled & has_vote
            bmap[adopt] = votes[adopt].argmax(axis=1)
        else:  # memory-light fallback: vote along out-edges only
            ok = (bmap[dst] >= 0) & (bmap[src] < 0)
            flat = src[ok] * num_blocks + bmap[dst[ok]]
            counts = np.bincount(flat, weights=wgt[ok], minlength=n * num_blocks)
            votes2 = counts.reshape(n, num_blocks)
            has_vote = votes2.sum(axis=1) > 0
            adopt = unlabeled & has_vote
            bmap[adopt] = votes2[adopt].argmax(axis=1)
    still = bmap < 0
    if still.any():
        bmap[still] = rng.integers(0, num_blocks, int(still.sum()))
    return bmap


class ISBPPartitioner(CPUSBPEngine):
    """I-SBP-like CPU baseline: sample → partition → extend → refine."""

    name = "I-SBP"

    def move_batch_size(self, num_vertices: int) -> int:
        # H-SBP hybrid: large async batches for the bulk of vertices
        return max(1, num_vertices // 16)

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraphCSR) -> PartitionResult:
        if graph.num_vertices < 20:
            result = super().partition(graph)
            result.algorithm = self.name
            return result
        rng = make_rng(self.config.seed, "isbp", "sample")
        sub, sampled = sample_subgraph(graph, SAMPLE_FRACTION, rng)

        # Stage 1: full SBP on the sample with an aggressive merge rate.
        inner = CPUSBPEngine(
            self.config.replace(
                num_blocks_reduction_rate=AGGRESSIVE_RATE,
                seed=self.config.seed + 1,
            ),
            max_plateaus=self.max_plateaus,
        )
        inner.move_batch_size = self.move_batch_size  # type: ignore[method-assign]
        sample_result = inner.partition(sub)

        # Stage 2: extend sample labels to all vertices.
        bmap0 = extend_partition(
            graph, sampled, sample_result.partition,
            sample_result.num_blocks, rng,
        )

        # Stage 3: refinement — reuse the engine but start from the
        # extended partition instead of singletons.
        outer = _WarmStartEngine(bmap0, self.config, self.max_plateaus)
        outer.name = self.name
        outer.move_batch_size = self.move_batch_size  # type: ignore[method-assign]
        result = outer.partition(graph)
        result.algorithm = self.name
        result.total_time_s += sample_result.total_time_s
        result.timings.block_merge_s += sample_result.timings.block_merge_s
        result.timings.vertex_move_s += sample_result.timings.vertex_move_s
        result.timings.golden_section_s += sample_result.timings.golden_section_s
        result.num_sweeps += sample_result.num_sweeps
        return result


class _WarmStartEngine(CPUSBPEngine):
    """CPU engine whose initial partition is supplied by the caller."""

    def __init__(self, bmap0: np.ndarray, config, max_plateaus: int) -> None:
        super().__init__(config, max_plateaus)
        self._bmap0 = np.asarray(bmap0, dtype=INDEX_DTYPE)

    def initial_partition(self, graph, rng) -> np.ndarray:
        if len(self._bmap0) != graph.num_vertices:
            raise PartitionError("warm-start partition does not cover the graph")
        return self._bmap0.copy()
