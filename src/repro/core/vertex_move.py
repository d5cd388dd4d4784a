"""The vertex-move phase: batched asynchronous-Gibbs MCMC (paper §3).

Each sweep splits the vertices into ``num_batches_for_MCMC`` batches.
Within a batch every vertex proposes a destination block (Algorithm 1),
its ΔMDL is evaluated against the *frozen* blockmodel (Eq. 7), and the
Metropolis-Hastings test with Hastings correction decides acceptance; all
accepted moves of the batch are applied together and an
:class:`~repro.blockmodel.incremental.IncrementalBlockmodel` brings the
blockmodel up to date as sparse deltas, byte-identical to a full
Algorithm-2 rebuild.  Freezing the blockmodel within a batch is the
asynchronous-Gibbs approximation that makes the otherwise serial MCMC
chain parallel.

Sweeps stop when the moving average of the per-sweep MDL change drops
below the configured threshold times the initial description length —
the convergence rule shared by the reference implementation, uSAP and
I-SBP (Table 2's ``delta_entropy_threshold*``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from ..blockmodel.blockmodel import BlockmodelCSR
from ..blockmodel.delta import MoveDeltaContext, move_context, move_delta_batch
# Unused here; kept as a module attribute so tools that wrap the
# vertex-move entry points by name still find it.
from ..blockmodel.delta import precompute_block_term_sums  # noqa: F401
from ..blockmodel.entropy import description_length
from ..blockmodel.incremental import IncrementalBlockmodel
from ..config import SBPConfig
from ..gpusim.curand import cumulative_weights
from ..gpusim.device import Device, KernelCost
from ..graph.csr import DiGraphCSR, combined_adjacency
from ..obs import NULL_OBS, Observability
from ..types import INDEX_DTYPE, IndexArray
from .mh import accept_moves
from .proposals import propose_vertex_moves

# Unused here; kept as a module attribute so tools that wrap the
# vertex-move entry points by name still find it.
hastings_correction_batch = None

PHASE = "vertex_move"


def build_move_context(
    device: Device,
    graph: DiGraphCSR,
    bmap: np.ndarray,
    vertices: np.ndarray,
    proposals: np.ndarray,
    phase: str = PHASE,
) -> MoveDeltaContext:
    """:func:`move_context` as one ``build_move_context`` launch."""
    vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
    work = int(
        (graph.out_adj.ptr[vertices + 1] - graph.out_adj.ptr[vertices]).sum()
        + (graph.in_adj.ptr[vertices + 1] - graph.in_adj.ptr[vertices]).sum()
    )
    return device.execute(
        "build_move_context",
        KernelCost(max(work, 1), 4.0),
        lambda: move_context(graph, bmap, vertices, proposals),
        phase,
    )


def sweep_converged(window: Deque[float], delta_mdl: float, tolerance: float) -> bool:
    """Push one sweep's MDL change onto *window* (a ``deque`` whose
    ``maxlen`` is the moving-average length); True once the window is
    full and the magnitude of its mean is below *tolerance*."""
    window.append(delta_mdl)
    return len(window) == window.maxlen and abs(sum(window) / len(window)) < tolerance


@dataclass(frozen=True)
class VertexMoveOutcome:
    """Result of one vertex-move phase (one MDL plateau)."""

    bmap: IndexArray
    blockmodel: BlockmodelCSR
    mdl: float
    num_sweeps: int
    num_moves_accepted: int
    num_proposals: int
    proposal_time_s: float
    converged: bool


def run_vertex_move_phase(
    device: Device,
    graph: DiGraphCSR,
    blockmodel: BlockmodelCSR,
    bmap: IndexArray,
    config: SBPConfig,
    rng: np.random.Generator,
    threshold: float,
    initial_mdl_scale: Optional[float] = None,
    obs: Optional[Observability] = None,
    integrity=None,
    incremental: Optional[IncrementalBlockmodel] = None,
    cancel=None,
) -> VertexMoveOutcome:
    """Run batched async-Gibbs sweeps until the MDL plateaus.

    Parameters
    ----------
    threshold:
        Relative convergence threshold (``delta_entropy_threshold1`` or
        ``2`` depending on the golden-section regime).
    initial_mdl_scale:
        The MDL scale the threshold is relative to; defaults to the MDL
        at phase entry.
    incremental:
        The :class:`~repro.blockmodel.incremental.IncrementalBlockmodel`
        that applies accepted batches as sparse deltas; when omitted the
        phase builds one on *device*.  The partitioner passes its own so
        the merge phase's mirror carries over, and so the degradation
        ladder can keep the maintenance off a faulting device.
    obs:
        Observability hub recording sweep spans, acceptance counters and
        the per-proposal ΔMDL distribution; disabled hub by default.
        Recording never consumes RNG draws, so a traced phase produces
        the exact same moves as an untraced one.
    integrity:
        Optional :class:`~repro.integrity.IntegrityManager`; gets an
        integrity site (corruption exposure + cadenced audit/repair)
        after every blockmodel update.  Like *obs*, it never consumes
        RNG draws.
    cancel:
        Optional :class:`~repro.serve.CancelToken`; checked at the top
        of every sweep so a deadline or shutdown aborts the phase
        between sweeps (the partial plateau is discarded — the caller
        keeps the last completed plateau's state).
    """
    obs = obs or NULL_OBS
    bmap = np.asarray(bmap, dtype=INDEX_DTYPE).copy()
    num_vertices = graph.num_vertices
    total_weight = graph.total_edge_weight
    vertex_adj = combined_adjacency(graph.out_adj, graph.in_adj)
    vertex_adj = (*vertex_adj, cumulative_weights(vertex_adj[2]))

    mdl = description_length(blockmodel, num_vertices, total_weight)
    scale = abs(initial_mdl_scale if initial_mdl_scale is not None else mdl)
    window = deque(maxlen=config.delta_entropy_moving_avg_window)
    accepted_total = 0
    proposals_total = 0
    proposal_time = 0.0
    converged = False
    sweeps = 0

    if incremental is None:
        incremental = IncrementalBlockmodel(device, graph, obs=obs)
    incremental.ensure(blockmodel)

    for sweep in range(config.max_num_nodal_itr):
        if cancel is not None:
            cancel.check("sweep")
        sweeps = sweep + 1
        order = rng.permutation(num_vertices).astype(INDEX_DTYPE)
        batches = np.array_split(order, config.num_batches_for_MCMC)
        with obs.span("sweep", "sweep", index=sweep) as sweep_span:
            for batch in batches:
                if len(batch) == 0:
                    continue
                t0 = time.perf_counter()
                prop = propose_vertex_moves(
                    device, graph, blockmodel, bmap, batch, rng,
                    vertex_adjacency=vertex_adj, phase=PHASE,
                )
                proposal_time += time.perf_counter() - t0
                proposals_total += len(batch)
                ctx = build_move_context(
                    device, graph, bmap, batch, prop.proposals, PHASE
                )
                delta, hastings = move_delta_batch(device, blockmodel, ctx, PHASE)
                accept = accept_moves(device, delta, hastings, config.beta, rng, PHASE)
                accept &= ctx.r != ctx.s
                num_accepted = int(accept.sum())
                obs.count(
                    "mcmc_proposals_total", len(batch),
                    help="vertex-move proposals evaluated",
                )
                obs.count(
                    "mcmc_moves_accepted_total", num_accepted,
                    help="vertex moves accepted by the MH test",
                )
                obs.observe_many(
                    "mcmc_delta_mdl", delta, help="per-proposal ΔMDL (Eq. 7)"
                )
                if num_accepted:
                    movers = batch[accept]
                    bmap[movers] = prop.proposals[accept]
                    accepted_total += num_accepted
                    blockmodel = incremental.apply_batch(
                        bmap, movers, ctx.r[accept],
                        prop.proposals[accept], PHASE,
                        context=ctx.take(accept),
                    )
                    if integrity is not None:
                        repaired = integrity.site(bmap, blockmodel, PHASE)
                        if repaired is not blockmodel:
                            # A repair rebuilt state from scratch; the
                            # maintainer must re-adopt the new object.
                            blockmodel = repaired
                            incremental.reset(blockmodel)
            new_mdl = description_length(blockmodel, num_vertices, total_weight)
            sweep_span.set(mdl=new_mdl, delta_mdl=mdl - new_mdl)
        obs.observe(
            "sweep_delta_mdl", mdl - new_mdl,
            help="MDL improvement per MCMC sweep",
        )
        converged = sweep_converged(window, mdl - new_mdl, threshold * scale)
        mdl = new_mdl
        if converged:
            break

    return VertexMoveOutcome(
        bmap=bmap,
        blockmodel=blockmodel,
        mdl=mdl,
        num_sweeps=sweeps,
        num_moves_accepted=accepted_total,
        num_proposals=proposals_total,
        proposal_time_s=proposal_time,
        converged=converged,
    )
