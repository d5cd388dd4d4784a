"""Stochastic proposal generation (paper §3.2, Algorithm 1, Fig. 4).

Every proposer (a block in the block-merge phase, a vertex in the
vertex-move phase) first samples a neighbour by the multinomial
distribution of its connecting edge weights, identifying a pivot block
``u``; then with probability ``B / (deg[u] + B)`` the proposal is a
uniformly random block (the escape hatch that keeps the chain from being
trapped in local MDL minima), otherwise the proposal is a block drawn
from ``u``'s own adjacency — realised, exactly as in Algorithm 1 line 10,
by reusing the pre-generated multinomial table entry for ``u``.

GSAP's trick is that all random inputs are produced up front as three
lookup tables (Fig. 4); the proposal kernel is then a pure gather over
those tables, launched over every proposer at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..gpusim.curand import (
    LookupTables,
    Part,
    build_lookup_tables,
    multinomial_neighbor_table,
)
from ..gpusim.device import Device, KernelCost
from ..graph.csr import DiGraphCSR, combined_adjacency
from ..types import INDEX_DTYPE


def _block_parts(bm: BlockmodelCSR) -> Tuple[Part, Part]:
    """The blockmodel's two directions; row ``u`` of their union is
    ``out_u ++ in_u``, block ``u``'s neighbours by edge weight."""
    return (bm.out_ptr, bm.out_nbr, bm.out_wgt), (bm.in_ptr, bm.in_nbr, bm.in_wgt)


@dataclass(frozen=True)
class ProposalBatch:
    """Result of one proposal kernel launch."""

    proposers: np.ndarray  # block or vertex ids, one per slot
    proposals: np.ndarray  # proposed block id per slot
    tables: LookupTables


def propose_block_merges(
    device: Device,
    bm: BlockmodelCSR,
    rng: np.random.Generator,
    num_proposals: int,
    phase: str = "block_merge",
) -> ProposalBatch:
    """Algorithm 1 over every block × ``num_proposals`` slots.

    Merge proposals must differ from the proposer; slots that would
    propose self are nudged to the next block (mod B), preserving
    uniformity over the remaining blocks for the random branch.
    """
    b = bm.num_blocks
    num_slots = b * num_proposals
    deg = bm.deg_total()

    proposers = np.tile(np.arange(b, dtype=INDEX_DTYPE), num_proposals)
    # One multinomial draw per block *per proposal round* — the tables are
    # rebuilt for each of the num_proposals iterations (paper §3.2), so
    # a block's proposals differ across rounds; slot k·B + u still finds
    # round k's pre-drawn neighbour of block u for Algorithm 1 line 10.
    tables = build_lookup_tables(
        device, rng, num_slots, b, _block_parts(bm), rows=proposers, phase=phase
    )

    def kernel() -> np.ndarray:
        multi = tables.multinomial  # slot k·B + v: round-k draw for block v
        rounds = np.arange(num_slots, dtype=INDEX_DTYPE) // b * b
        u = multi  # slot k·B + v is proposer v's round-k pivot draw
        x = tables.uniform
        rand_blk = tables.random_block
        # deg[u] guarded: u == -1 marks "no neighbours"
        deg_u = np.where(u >= 0, deg[np.maximum(u, 0)], 0)
        take_random = (deg[proposers] <= 0) | (u < 0)
        take_random |= x <= (b / (deg_u + b))
        # Algorithm 1 line 10: reuse u's pre-drawn neighbour of this round.
        u_slots = rounds + np.maximum(u, 0)
        via_multi = np.where(u >= 0, multi[u_slots], -1)
        take_random |= via_multi < 0
        out = np.where(take_random, rand_blk, via_multi)
        # merges must not propose self
        out = np.where(out == proposers, (out + 1) % max(b, 1), out)
        return out.astype(INDEX_DTYPE)

    proposals = device.execute(
        "propose_block_merge",
        KernelCost(work_items=num_slots, ops_per_item=8.0),
        kernel,
        phase,
    )
    return ProposalBatch(proposers=proposers, proposals=proposals, tables=tables)


def propose_vertex_moves(
    device: Device,
    graph: DiGraphCSR,
    bm: BlockmodelCSR,
    bmap: np.ndarray,
    vertices: np.ndarray,
    rng: np.random.Generator,
    vertex_adjacency: Optional[Part] = None,
    phase: str = "vertex_move",
) -> ProposalBatch:
    """Algorithm 1 for a batch of vertices (the vertex-move variant).

    Each vertex samples a neighbouring *vertex* by edge weight, maps it to
    its block ``u`` through ``Bmap``, then proceeds exactly as the merge
    variant (random block with probability ``B/(deg[u]+B)``, otherwise a
    pre-drawn neighbour of ``u`` in the blockmodel).  The vertex-move
    phase passes the graph's combined adjacency followed by its
    :func:`~repro.gpusim.curand.cumulative_weights`, built once per phase.
    """
    b = bm.num_blocks
    vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
    num_slots = len(vertices)
    if vertex_adjacency is None:
        vertex_adjacency = combined_adjacency(graph.out_adj, graph.in_adj)
    deg = bm.deg_total()

    # The per-mover multinomial is drawn over the vertex adjacency; the
    # block table holds one pre-drawn neighbour per block (line 10).
    # The draw order (uniform, random block, per mover, per block) fixes
    # the random stream, and so the partitions.
    tables = build_lookup_tables(
        device, rng, num_slots, b, (vertex_adjacency,), rows=vertices, phase=phase
    )
    block_multi = multinomial_neighbor_table(device, rng, _block_parts(bm), phase=phase)

    def kernel() -> np.ndarray:
        nbr_vertex = tables.multinomial
        u = np.where(nbr_vertex >= 0, bmap[np.maximum(nbr_vertex, 0)], -1)
        deg_u = np.where(u >= 0, deg[np.maximum(u, 0)], 0)
        take_random = u < 0
        take_random |= tables.uniform <= (b / (deg_u + b))
        via_multi = np.where(u >= 0, block_multi[np.maximum(u, 0)], -1)
        take_random |= via_multi < 0
        return np.where(take_random, tables.random_block, via_multi).astype(
            INDEX_DTYPE
        )

    proposals = device.execute(
        "propose_vertex_move",
        KernelCost(work_items=max(num_slots, 1), ops_per_item=8.0),
        kernel,
        phase,
    )
    return ProposalBatch(proposers=vertices, proposals=proposals, tables=tables)
