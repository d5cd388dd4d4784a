"""The block-merge phase (paper §3, Fig. 2 left column).

Every block proposes ``num_proposals`` candidate merges (Algorithm 1),
the ΔMDL of every candidate is evaluated in one batched device pass
(Eqs. 4-6), the best candidate per block is selected with a segmented
argmin, and the proposals are transferred back to the CPU where the
requested number of merges is applied in ascending-ΔMDL order — the
perform-merge step the paper deliberately keeps on the CPU.

Merge chains (``a → b`` while ``b → c``) are resolved with a union-find,
matching the reference implementation's sequential application semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.delta import merge_delta_batch
# Unused here; kept as a module attribute so tools that wrap the
# block-merge entry points by name still find it.
from ..blockmodel.delta import precompute_block_term_sums  # noqa: F401
from ..blockmodel.incremental import IncrementalBlockmodel
from ..config import SBPConfig
from ..errors import PartitionError
from ..gpusim.device import Device
from ..graph.csr import DiGraphCSR
from ..obs import NULL_OBS, Observability
from ..types import INDEX_DTYPE, IndexArray
from .proposals import propose_block_merges

PHASE = "block_merge"


@dataclass(frozen=True)
class BlockMergeOutcome:
    """Result of one block-merge phase."""

    bmap: IndexArray
    num_blocks: int
    blockmodel: BlockmodelCSR
    num_merged: int
    num_proposals_evaluated: int
    proposal_time_s: float


class _UnionFind:
    """Path-compressing union-find over block ids."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=INDEX_DTYPE)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = int(self.parent[root])
        while self.parent[x] != root:
            self.parent[x], x = root, int(self.parent[x])
        return root

    def union_into(self, src: int, dst: int) -> bool:
        """Merge *src*'s set into *dst*'s set; False if already joined."""
        rs, rd = self.find(src), self.find(dst)
        if rs == rd:
            return False
        self.parent[rs] = rd
        return True

    def labels(self) -> np.ndarray:
        """Root label of every element, via pointer-jumping to fixpoint.

        Iterating ``labels = labels[labels]`` doubles the resolved path
        length each pass, so chains of any length converge in O(log n)
        vectorized passes — equivalent to (but much faster than) calling
        :meth:`find` per element.
        """
        labels = self.parent.copy()
        while True:
            hop = labels[labels]
            if np.array_equal(hop, labels):
                return labels.astype(INDEX_DTYPE, copy=False)
            labels = hop


def select_best_proposals(
    delta: np.ndarray, proposals: np.ndarray, num_blocks: int, num_proposals: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per block, the proposal with the smallest ΔMDL.

    The slot layout follows :func:`propose_block_merges`: slot
    ``k·B + b`` is block ``b``'s ``k``-th proposal.
    """
    delta_by_block = delta.reshape(num_proposals, num_blocks)
    proposals_by_block = proposals.reshape(num_proposals, num_blocks)
    best_k = np.argmin(delta_by_block, axis=0)
    cols = np.arange(num_blocks)
    return delta_by_block[best_k, cols], proposals_by_block[best_k, cols]


def apply_merges_with_relabel(
    bmap: IndexArray,
    num_blocks: int,
    best_delta: np.ndarray,
    best_proposal: np.ndarray,
    num_to_merge: int,
) -> Tuple[IndexArray, int, int, np.ndarray]:
    """CPU perform-merge step: apply the *num_to_merge* cheapest merges.

    Returns ``(new_bmap, new_num_blocks, merges_applied, gmap)`` with
    dense block labels; ``gmap[b]`` is the dense post-merge id of old
    block *b* (the relabel map the incremental maintainer collapses the
    blockmodel under).
    """
    if num_to_merge <= 0:
        return bmap.copy(), num_blocks, 0, np.arange(num_blocks, dtype=INDEX_DTYPE)
    order = np.argsort(best_delta, kind="stable")
    uf = _UnionFind(num_blocks)
    applied = 0
    for b in order:
        if applied >= num_to_merge:
            break
        s = int(best_proposal[b])
        if s < 0 or s >= num_blocks:
            continue
        if uf.union_into(int(b), s):
            applied += 1
    labels = uf.labels()
    # compact to dense ids
    used = np.unique(labels)
    remap = np.full(num_blocks, -1, dtype=INDEX_DTYPE)
    remap[used] = np.arange(len(used), dtype=INDEX_DTYPE)
    gmap = remap[labels]
    new_bmap = gmap[bmap]
    return new_bmap, len(used), applied, gmap


def run_block_merge_phase(
    device: Device,
    graph: DiGraphCSR,
    blockmodel: BlockmodelCSR,
    bmap: IndexArray,
    target_num_blocks: int,
    config: SBPConfig,
    rng: np.random.Generator,
    obs: Optional[Observability] = None,
    integrity=None,
    incremental: Optional[IncrementalBlockmodel] = None,
) -> BlockMergeOutcome:
    """Merge the current partition down to *target_num_blocks* blocks.

    Proposal rounds repeat until the target is reached (one round almost
    always suffices since every block proposes; chains can fall short by
    a few merges on adversarial proposals).  After each round the
    *incremental* :class:`~repro.blockmodel.incremental.IncrementalBlockmodel`
    collapses the blockmodel under the merge relabelling — O(nnz log nnz)
    rather than Algorithm 2's O(E log E), byte-identical output; when
    omitted the phase builds one on *device*.
    *obs* records per-round spans and the merge ΔMDL distribution.
    *integrity* (an :class:`~repro.integrity.IntegrityManager`) gets an
    integrity site after every round — the point where corruption can
    strike and audits/repairs run.
    """
    if target_num_blocks < 1:
        raise PartitionError(f"target_num_blocks must be >= 1, got {target_num_blocks}")
    obs = obs or NULL_OBS
    if incremental is None:
        incremental = IncrementalBlockmodel(device, graph, obs=obs)
    bmap = np.asarray(bmap, dtype=INDEX_DTYPE).copy()
    num_blocks = blockmodel.num_blocks
    total_evaluated = 0
    proposal_time = 0.0
    rounds = 0
    while num_blocks > target_num_blocks:
        rounds += 1
        if rounds > 64:
            raise PartitionError(
                f"block-merge failed to reach target {target_num_blocks} "
                f"from {num_blocks} blocks after {rounds} rounds"
            )
        with obs.span("merge_round", "round", round=rounds,
                      num_blocks=num_blocks, target=target_num_blocks):
            t0 = time.perf_counter()
            batch = propose_block_merges(
                device, blockmodel, rng, config.num_proposals, PHASE
            )
            delta = merge_delta_batch(
                device, blockmodel, batch.proposers, batch.proposals, PHASE
            )
            proposal_time += time.perf_counter() - t0
            total_evaluated += len(delta)
            best_delta, best_proposal = select_best_proposals(
                delta, batch.proposals, num_blocks, config.num_proposals
            )
            incremental.ensure(blockmodel)
            bmap, num_blocks, applied, gmap = apply_merges_with_relabel(
                bmap, num_blocks, best_delta, best_proposal,
                num_blocks - target_num_blocks,
            )
            blockmodel = incremental.apply_merge_relabel(gmap, num_blocks, PHASE)
            if integrity is not None:
                repaired = integrity.site(bmap, blockmodel, PHASE)
                if repaired is not blockmodel:
                    blockmodel = repaired
                    incremental.reset(blockmodel)
        obs.count("merge_rounds_total", help="block-merge proposal rounds")
        obs.count(
            "merge_proposals_total", len(delta),
            help="merge candidates evaluated",
        )
        obs.observe_many(
            "merge_delta_mdl", best_delta,
            help="best per-block merge ΔMDL (Eqs. 4-6)",
        )
        if applied == 0:
            raise PartitionError(
                "block-merge made no progress; proposals degenerate"
            )
    return BlockMergeOutcome(
        bmap=bmap,
        num_blocks=num_blocks,
        blockmodel=blockmodel,
        num_merged=blockmodel.num_blocks,
        num_proposals_evaluated=total_evaluated,
        proposal_time_s=proposal_time,
    )
