"""Shared machinery for the CPU baseline partitioners.

The baselines model the paper's comparison systems (uSAP, I-SBP and the
GraphChallenge reference they both descend from): sequential or
coarsely-batched MCMC that refreshes the blockmodel after every batch
of moves.  Where GSAP evaluates every proposal of a phase in one
batched device pass, these engines draw proposals one vertex at a time
and refresh the blockmodel after every batch — one vertex for the
reference's serial chain, a wave of vertices for uSAP and I-SBP.  Each
batch is scored by the one vertex-move body of :mod:`.moves`.

The blockmodel is GSAP's :class:`~repro.blockmodel.blockmodel.BlockmodelCSR`,
kept exactly as GSAP's plateau keeps it: Algorithm 2
(:func:`~repro.blockmodel.update.rebuild_blockmodel`) at each plateau
start, then :class:`~repro.blockmodel.incremental.IncrementalBlockmodel`
after every merge round and every accepted batch.  Those kernels run on
a private simulated device made inside each :meth:`CPUSBPEngine.partition`
call; its clock is not reported.

The substitution note of DESIGN.md §2 applies: the paper's baselines are
C++ with 20 CPU threads; ours are Python loops.  Both sit on the
"iterate per vertex" side of the algorithmic divide, so the *shape* of
the GSAP-vs-baseline comparison (who wins, how the gap scales with |E|)
is preserved even though absolute times differ.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.delta import merge_delta_cells
# Unused here; kept as a module attribute so tools that wrap the
# block-merge entry points by name still find it.
from ..blockmodel.delta import merge_delta_dense  # noqa: F401
from ..blockmodel.entropy import description_length
from ..blockmodel.incremental import IncrementalBlockmodel
from ..blockmodel.update import rebuild_blockmodel
from ..config import SBPConfig
from ..core.block_merge import apply_merges_with_relabel
from ..core.golden_section import GoldenSectionSearch
from ..core.result import PartitionResult
from ..core.state import PartitionSnapshot, PhaseTimings, ProposalStats
from ..core.vertex_move import sweep_converged
from ..errors import PartitionError
from ..gpusim.device import Device
from ..graph.csr import DiGraphCSR
from ..logging_util import get_logger
from ..rng import StreamFactory
from ..types import INDEX_DTYPE
# Merge proposals look propose_from_blockmodel up here; vertex moves
# call it inside .moves.  vertex_neighborhood is re-exported.
from .moves import FrozenRows, apply_accepted, propose_from_blockmodel, score_moves
from .moves import vertex_neighborhood  # noqa: F401

logger = get_logger("baselines")


def _draw_merge_targets(
    model: BlockmodelCSR, rng: np.random.Generator, num_proposals: int
) -> np.ndarray:
    """Every block's merge proposals for one round, block by block.

    Block ``r`` pivots on its own row + column, so its running sum from
    the round's :class:`FrozenRows` stands in for the pivot weights: the
    draw lands on the same block as a search over its nonzero entries.
    """
    b = model.num_blocks
    rows = FrozenRows(model)
    blocks = np.arange(b, dtype=INDEX_DTYPE)
    targets = np.empty((b, num_proposals), dtype=INDEX_DTYPE)
    for r in range(b):
        pivot_run = rows.cumsum(r)
        targets[r] = [
            propose_from_blockmodel(
                model, blocks, pivot_run, rng, exclude=r, cache=rows
            )
            for _ in range(num_proposals)
        ]
    return targets


@dataclass
class MovePhaseResult:
    mdl: float
    num_sweeps: int
    num_proposals: int
    proposal_time_s: float
    num_moves_accepted: int


class CPUSBPEngine:
    """Sequential SBP engine the baseline partitioners specialise.

    Subclasses override :meth:`initial_partition` (uSAP's SCC seeding,
    I-SBP's sample-extend) and :meth:`move_batch_size` (sequential vs
    async-Gibbs batching); the merge body (``merge_delta_cells``, the
    one GSAP launches) and the vertex-move body (:mod:`.moves`) are
    shared and exact.
    """

    name = "cpu-sbp"

    def __init__(self, config: Optional[SBPConfig] = None,
                 max_plateaus: int = 128) -> None:
        self.config = config or SBPConfig()
        self.max_plateaus = max_plateaus

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------
    def initial_partition(
        self, graph: DiGraphCSR, rng: np.random.Generator
    ) -> np.ndarray:
        """Initial Bmap; the reference starts from singletons."""
        return np.arange(graph.num_vertices, dtype=INDEX_DTYPE)

    def move_batch_size(self, num_vertices: int) -> int:
        """Vertices processed between blockmodel refreshes (1 = serial MCMC)."""
        return 1

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraphCSR) -> PartitionResult:
        if graph.num_vertices == 0:
            return PartitionResult(
                partition=np.empty(0, dtype=INDEX_DTYPE), num_blocks=0, mdl=0.0,
                algorithm=self.name,
            )
        config = self.config
        streams = StreamFactory(config.seed)
        timings = PhaseTimings()
        stats = ProposalStats()
        run_start = time.perf_counter()
        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight

        bmap = self.initial_partition(graph, streams.get("init"))
        bmap = np.unique(bmap, return_inverse=True)[1].astype(INDEX_DTYPE)
        num_blocks = int(bmap.max()) + 1
        device = Device()
        incremental = IncrementalBlockmodel(device, graph)
        model = rebuild_blockmodel(device, graph, bmap, num_blocks)
        initial_mdl = description_length(model, num_vertices, total_weight)
        search = GoldenSectionSearch(
            reduction_rate=config.num_blocks_reduction_rate,
            min_blocks=config.min_blocks,
        )
        search.update(PartitionSnapshot(num_blocks, initial_mdl, bmap.copy()))

        total_sweeps = 0
        converged = True
        plateaus = 0
        while not search.done():
            plateaus += 1
            if plateaus > self.max_plateaus:
                converged = False
                break
            target, resume = search.next_target()
            bmap = resume.bmap.copy()
            incremental.reset(
                rebuild_blockmodel(device, graph, bmap, resume.num_blocks)
            )

            t0 = time.perf_counter()
            bmap, model, merge_props, merge_prop_time = self._merge_phase(
                incremental, bmap, target, streams.next_in_sequence("merge")
            )
            timings.block_merge_s += time.perf_counter() - t0
            stats.merge_proposals += merge_props
            stats.merge_proposal_time_s += merge_prop_time

            threshold = (
                config.delta_entropy_threshold1
                if search.threshold_regime() == 1
                else config.delta_entropy_threshold2
            )
            t0 = time.perf_counter()
            move_result = self._move_phase(
                incremental, bmap, streams.next_in_sequence("move"),
                threshold, initial_mdl,
            )
            timings.vertex_move_s += time.perf_counter() - t0
            stats.move_proposals += move_result.num_proposals
            stats.move_proposal_time_s += move_result.proposal_time_s
            total_sweeps += move_result.num_sweeps

            t0 = time.perf_counter()
            search.update(
                PartitionSnapshot(model.num_blocks, move_result.mdl, bmap.copy())
            )
            timings.golden_section_s += time.perf_counter() - t0

        best = search.best
        if best is None:
            raise PartitionError("no partition evaluated")
        return PartitionResult(
            partition=best.bmap,
            num_blocks=best.num_blocks,
            mdl=best.mdl,
            history=list(search.history),
            timings=timings,
            proposal_stats=stats,
            total_time_s=time.perf_counter() - run_start,
            sim_time_s=0.0,
            num_sweeps=total_sweeps,
            converged=converged,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------
    def _merge_phase(
        self,
        incremental: IncrementalBlockmodel,
        bmap: np.ndarray,
        target: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, BlockmodelCSR, int, float]:
        """Draw every block's merge proposals, score the round in one
        touched-cell call, then apply the cheapest.

        Scoring draws nothing, so drawing all of a block's proposals
        before the next block's consumes the generator exactly as scoring
        each proposal on drawing would.  The whole ``(B, num_proposals)``
        round is then scored by one
        :func:`~repro.blockmodel.delta.merge_delta_cells` call on the
        blockmodel *incremental* tracks; each block keeps its first
        strict minimum.  The applied merges collapse that blockmodel
        with :meth:`~repro.blockmodel.incremental.IncrementalBlockmodel.apply_merge_relabel`.
        """
        config = self.config
        model = incremental.blockmodel
        proposals_evaluated = 0
        proposal_time = 0.0
        guard = 0
        while model.num_blocks > target:
            guard += 1
            if guard > 64:
                raise PartitionError("merge phase failed to reach target")
            b = model.num_blocks
            t0 = time.perf_counter()
            targets = _draw_merge_targets(model, rng, config.num_proposals)
            proposers = np.repeat(np.arange(b, dtype=INDEX_DTYPE), targets.shape[1])
            deltas = merge_delta_cells(
                model, proposers, targets.ravel()
            ).reshape(targets.shape)
            proposals_evaluated += targets.size
            first_min = deltas.argmin(axis=1)  # first strict minimum per block
            blocks = np.arange(b)
            best_delta = deltas[blocks, first_min]
            best_proposal = targets[blocks, first_min]
            proposal_time += time.perf_counter() - t0
            # apply the (b - target) cheapest merges via union-find
            bmap, new_b, applied, gmap = apply_merges_with_relabel(
                bmap, b, best_delta, best_proposal, b - target
            )
            if applied == 0:
                raise PartitionError("merge phase made no progress")
            model = incremental.apply_merge_relabel(gmap, new_b)
        return bmap, model, proposals_evaluated, proposal_time

    def _move_phase(
        self,
        incremental: IncrementalBlockmodel,
        bmap: np.ndarray,
        rng: np.random.Generator,
        threshold: float,
        initial_mdl_scale: float,
    ) -> MovePhaseResult:
        """Sequential (or batched) MCMC sweeps until the MDL plateaus."""
        config = self.config
        graph = incremental.graph
        model = incremental.blockmodel
        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight
        batch_size = max(1, self.move_batch_size(num_vertices))
        mdl = description_length(model, num_vertices, total_weight)
        tolerance = threshold * abs(initial_mdl_scale)
        window = deque(maxlen=config.delta_entropy_moving_avg_window)
        proposal_time = 0.0
        sweeps = 0
        accepted = 0
        for sweep in range(config.max_num_nodal_itr):
            sweeps = sweep + 1
            order = rng.permutation(num_vertices)
            # batch_size == 1 is the classic serial MCMC chain
            for start in range(0, num_vertices, batch_size):
                moves, prop_s = score_moves(
                    graph, model, bmap, order[start : start + batch_size],
                    rng, config.beta,
                )
                proposal_time += prop_s
                model = apply_accepted(incremental, bmap, moves)
                accepted += len(moves)
            new_mdl = description_length(model, num_vertices, total_weight)
            delta_mdl, mdl = mdl - new_mdl, new_mdl
            if sweep_converged(window, delta_mdl, tolerance):
                break
        return MovePhaseResult(
            mdl=mdl,
            num_sweeps=sweeps,
            num_proposals=sweeps * num_vertices,
            proposal_time_s=proposal_time,
            num_moves_accepted=accepted,
        )
