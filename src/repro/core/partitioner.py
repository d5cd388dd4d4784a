"""GSAP: the top-level GPU-accelerated stochastic graph partitioner.

:class:`GSAPPartitioner` wires the three phases together (paper Fig. 2):
starting from the singleton partition (every vertex its own block), it
repeatedly (1) merges blocks down to the golden-section target, (2) runs
batched async-Gibbs vertex moves until the MDL plateaus, and (3) feeds
the plateau into the golden-section search, stopping when the search
brackets collapse on the optimal block count.

Resilience
----------
Long runs survive device faults: every plateau executes under a
:class:`~repro.resilience.RetryPolicy` (exponential backoff + jitter,
a per-run fault budget), repeated out-of-memory faults walk a
degradation ladder (halve the vertex-move batch size, then maintain the
blockmodel off the faulting device), and
``partition(graph, checkpoint_dir=...)`` writes atomic mid-run
snapshots a killed run resumes from via ``resume_from=...`` — reaching,
for the same seed, the identical final partition as an uninterrupted
run.  Each attempt re-derives its RNG streams from
``(seed, phase, plateau)``, so retries and resumes stay deterministic.

Usage
-----
>>> from repro import GSAPPartitioner, load_dataset
>>> graph, truth = load_dataset("low_low", 1_000)
>>> result = GSAPPartitioner().partition(graph)
>>> result.num_blocks  # doctest: +SKIP
11
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple, Union

import numpy as np

from ..blockmodel.entropy import description_length
from ..blockmodel.incremental import IncrementalBlockmodel
from ..blockmodel.update import rebuild_blockmodel
from ..config import SBPConfig
from ..errors import (
    CheckpointError,
    ConvergenceError,
    DeviceMemoryError,
    PartitionError,
    RetryExhaustedError,
    RunCancelled,
)
from ..graph.csr import DiGraphCSR
from ..gpusim.device import A4000, Device
from ..logging_util import get_logger
from ..obs import Observability
from ..resilience.retry import (
    FaultBudget,
    ResilienceStats,
    RetryPolicy,
    with_retries,
)
from ..rng import StreamFactory
from ..types import INDEX_DTYPE
from .block_merge import BlockMergeOutcome, run_block_merge_phase
from .golden_section import GoldenSectionSearch
from .result import PartitionResult
from .state import PartitionSnapshot, PhaseTimings, ProposalStats
from .vertex_move import VertexMoveOutcome, run_vertex_move_phase

PathLike = Union[str, os.PathLike]

logger = get_logger("gsap")


class _Degradation:
    """Current rung of the OOM degradation ladder.

    Rungs escalate: halve the vertex-move batch size, then maintain the
    blockmodel off the device (``dense_rebuild``, a name kept so older
    checkpoints load): the plateau-start rebuild and every incremental
    update run on a private, fault-free device whose clock the run does
    not charge.
    """

    def __init__(self, batch_halvings: int = 0, dense_rebuild: bool = False):
        self.batch_halvings = batch_halvings
        self.dense_rebuild = dense_rebuild

    def effective_config(self, config: SBPConfig) -> SBPConfig:
        if self.batch_halvings == 0:
            return config
        return config.replace(
            num_batches_for_MCMC=(
                config.num_batches_for_MCMC * 2 ** self.batch_halvings
            )
        )

    def to_dict(self) -> dict:
        return {
            "batch_halvings": self.batch_halvings,
            "dense_rebuild": self.dense_rebuild,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "_Degradation":
        # Older checkpoints also carry "no_incremental", from a rung that
        # no longer exists; it is ignored.
        return cls(
            batch_halvings=int(payload.get("batch_halvings", 0)),
            dense_rebuild=bool(payload.get("dense_rebuild", False)),
        )


class GSAPPartitioner:
    """GPU-accelerated stochastic block partitioner (the paper's system).

    Parameters
    ----------
    config:
        SBP parameters; defaults to paper Table 2.  ``config.resilience``
        controls retries, the fault budget, the degradation ladder, and
        checkpoint cadence.
    device:
        Simulated device to execute on; defaults to a fresh A4000 model
        owned by this partitioner.
    max_plateaus:
        Safety cap on golden-section iterations (a run needs roughly
        ``log(V)`` of them; the default is generous).  Exhausting it
        raises :class:`~repro.errors.ConvergenceError` unless
        ``config.resilience.best_effort`` opts into returning the
        incumbent partition instead.
    observability:
        Tracing/metrics hub for the run; defaults to one built from
        ``config.observability`` (disabled by default, at which point
        every instrumentation call is a no-op and the partition output
        is bit-identical to an uninstrumented run).
    """

    name = "GSAP"

    def __init__(
        self,
        config: Optional[SBPConfig] = None,
        device: Optional[Device] = None,
        max_plateaus: int = 128,
        observability: Optional[Observability] = None,
    ) -> None:
        self.config = config or SBPConfig()
        self.device = device or Device(A4000)
        self.max_plateaus = max_plateaus
        self.obs = observability or Observability.from_config(
            self.config.observability
        )

    def _run_plateau(
        self,
        graph: DiGraphCSR,
        resume: PartitionSnapshot,
        target: int,
        threshold: float,
        initial_mdl: float,
        plateau_idx: int,
        streams: StreamFactory,
        degradation: _Degradation,
        timings: PhaseTimings,
        integrity=None,
        cancel=None,
    ) -> Tuple[BlockMergeOutcome, VertexMoveOutcome]:
        """One attempt of one plateau: rebuild, merge down, vertex-move.

        RNG generators are re-derived from ``(seed, phase, plateau_idx)``
        on every call, so a retried attempt replays identically and a
        fault-free run is indistinguishable from a retried one.
        """
        config = degradation.effective_config(self.config)
        device = self.device
        obs = self.obs
        # The last ladder rung keeps the maintenance off the faulting
        # device: a private device with no fault injector, whose clock
        # the run does not charge.
        maint_device = Device(device.spec) if degradation.dense_rebuild else device

        # Fresh maintainer per attempt: a faulted, retried attempt must
        # never inherit the sorted-key mirror of the attempt it replaces.
        incremental = IncrementalBlockmodel(maint_device, graph, obs=obs)

        t0 = time.perf_counter()
        with obs.span("block_merge", "phase", plateau=plateau_idx,
                      target=target):
            bmap = resume.bmap.copy()
            blockmodel = rebuild_blockmodel(
                maint_device, graph, bmap, resume.num_blocks
            )
            if integrity is not None:
                blockmodel = integrity.site(bmap, blockmodel, "block_merge")
            merge = run_block_merge_phase(
                device, graph, blockmodel, bmap, target, config,
                streams.get("block_merge", plateau_idx),
                obs=obs, integrity=integrity, incremental=incremental,
            )
        timings.block_merge_s += time.perf_counter() - t0

        # blockmodel_update_s is the maintenance time *inside* the
        # vertex-move phase (a subset of vertex_move_s, the Fig. 12
        # update-vs-MCMC split); merge-phase relabels stay in
        # block_merge_s.
        t0 = time.perf_counter()
        update_s0 = incremental.update_time_s
        with obs.span("vertex_move", "phase", plateau=plateau_idx):
            move = run_vertex_move_phase(
                device, graph, merge.blockmodel, merge.bmap, config,
                streams.get("vertex_move", plateau_idx),
                threshold, initial_mdl_scale=initial_mdl,
                obs=obs, integrity=integrity,
                incremental=incremental, cancel=cancel,
            )
        timings.vertex_move_s += time.perf_counter() - t0
        timings.blockmodel_update_s += incremental.update_time_s - update_s0
        return merge, move

    def _run_plateau_resilient(
        self,
        graph: DiGraphCSR,
        resume: PartitionSnapshot,
        target: int,
        threshold: float,
        initial_mdl: float,
        plateau_idx: int,
        streams: StreamFactory,
        degradation: _Degradation,
        timings: PhaseTimings,
        stats: ResilienceStats,
        budget: FaultBudget,
        integrity=None,
        cancel=None,
    ) -> Tuple[BlockMergeOutcome, VertexMoveOutcome]:
        """Run a plateau under retries; escalate persistent OOM down the
        degradation ladder instead of aborting.

        :class:`~repro.errors.RunCancelled` is deliberately *not* a
        retryable error — a deadline or shutdown propagates through the
        retry machinery untouched.
        """
        rcfg = self.config.resilience
        policy = RetryPolicy.from_config(rcfg)
        while True:
            try:
                return with_retries(
                    lambda attempt: self._run_plateau(
                        graph, resume, target, threshold, initial_mdl,
                        plateau_idx, streams, degradation, timings,
                        integrity=integrity, cancel=cancel,
                    ),
                    policy,
                    seed=self.config.seed,
                    label=f"plateau {plateau_idx}",
                    stats=stats,
                    budget=budget,
                    logger=logger,
                    obs=self.obs,
                )
            except RetryExhaustedError as exc:
                if budget.consumed > budget.limit:
                    raise  # run-wide fault budget blown: do not degrade
                cause = exc.last_error
                if not (
                    rcfg.degrade_on_oom
                    and isinstance(cause, DeviceMemoryError)
                ):
                    raise
                if degradation.batch_halvings < rcfg.max_batch_halvings:
                    degradation.batch_halvings += 1
                    eff = degradation.effective_config(self.config)
                    event = (
                        f"plateau {plateau_idx}: persistent OOM; halved "
                        f"vertex-move batch size (now "
                        f"{eff.num_batches_for_MCMC} batches)"
                    )
                elif not degradation.dense_rebuild:
                    degradation.dense_rebuild = True
                    event = (
                        f"plateau {plateau_idx}: OOM survived batch "
                        f"halving; maintaining the blockmodel off the device"
                    )
                else:
                    raise
                stats.record_degradation(event)
                self.obs.count(
                    "resilience_degradations_total",
                    help="OOM degradation-ladder steps taken",
                )
                self.obs.instant("degradation", "resilience", event=event)
                logger.warning("degrading: %s", event)

    # ------------------------------------------------------------------
    def partition(
        self,
        graph: DiGraphCSR,
        *,
        resume_from: Optional[PathLike] = None,
        checkpoint_dir: Optional[PathLike] = None,
        cancel=None,
    ) -> PartitionResult:
        """Run full SBP on *graph* and return the optimal partition found.

        Parameters
        ----------
        resume_from:
            Directory holding a run checkpoint written by a previous
            (killed) invocation; the run continues from its latest
            plateau.  The graph must match the checkpointed fingerprint.
        checkpoint_dir:
            Directory to write mid-run snapshots into, every
            ``config.resilience.checkpoint_every`` plateaus (every
            plateau when that is 0 but a directory is given).  Defaults
            to *resume_from* when resuming, so one directory carries a
            run across any number of kills.
        cancel:
            Optional :class:`~repro.serve.CancelToken` polled at every
            plateau and sweep boundary.  When it fires (deadline,
            shutdown, explicit cancel) the run stops cooperatively: if
            at least one plateau completed, the best partition found so
            far is returned with
            :attr:`~repro.core.result.PartitionResult.cancelled` set
            (and a resumable checkpoint is written when the token or the
            run carries a checkpoint directory); otherwise
            :class:`~repro.errors.RunCancelled` propagates.
        """
        if graph.num_vertices == 0:
            return PartitionResult(
                partition=np.empty(0, dtype=INDEX_DTYPE),
                num_blocks=0,
                mdl=0.0,
                algorithm=self.name,
            )
        obs = self.obs
        with obs.span(
            "run", "run",
            algorithm=self.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            seed=self.config.seed,
        ) as run_span:
            with obs.attach_device(self.device):
                result = self._partition_impl(
                    graph,
                    resume_from=resume_from,
                    checkpoint_dir=checkpoint_dir,
                    cancel=cancel,
                )
            run_span.set(
                num_blocks=result.num_blocks,
                mdl=result.mdl,
                plateaus=len(result.history),
                converged=result.converged,
                cancelled=result.cancelled,
            )
        return result

    def _partition_impl(
        self,
        graph: DiGraphCSR,
        *,
        resume_from: Optional[PathLike],
        checkpoint_dir: Optional[PathLike],
        cancel=None,
    ) -> PartitionResult:
        from ..checkpoint import (
            RunCheckpoint,
            graph_fingerprint,
            has_run_checkpoint,
            load_run_checkpoint,
            save_run_checkpoint,
        )
        from ..integrity import IntegrityManager, IntegrityStats

        obs = self.obs
        config = self.config
        rcfg = config.resilience
        device = self.device
        streams = StreamFactory(config.seed)
        stats = ResilienceStats()
        budget = FaultBudget(rcfg.fault_budget)
        degradation = _Degradation()
        sim_offset = 0.0
        sim_start = device.sim_time_s
        run_start = time.perf_counter()

        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight
        fingerprint = graph_fingerprint(graph)

        search = GoldenSectionSearch(
            reduction_rate=config.num_blocks_reduction_rate,
            min_blocks=config.min_blocks,
        )
        if obs.enabled:
            def _record_snapshot(snap: PartitionSnapshot) -> None:
                obs.series_append(
                    "mdl_per_plateau", None, snap.mdl,
                    help="MDL trajectory over golden-section plateaus",
                )
                obs.series_append(
                    "blocks_per_plateau", None, snap.num_blocks,
                    help="block count per golden-section step",
                )

            search.observer = _record_snapshot
        timings = PhaseTimings()
        prop_stats = ProposalStats()
        total_sweeps = 0
        plateaus = 0

        integrity_state: Optional[dict] = None
        if resume_from is not None:
            ck = load_run_checkpoint(resume_from)
            if ck.graph_fingerprint != fingerprint:
                raise CheckpointError(
                    f"checkpoint under {resume_from} was written for a "
                    f"different graph ({ck.graph_fingerprint} != {fingerprint})"
                )
            if ck.config and ck.config.get("seed") != config.seed:
                logger.warning(
                    "resuming with seed %s but checkpoint was written with "
                    "seed %s; the continued trajectory will differ",
                    config.seed, ck.config.get("seed"),
                )
            search.snapshots = list(ck.snapshots)
            search.history = [tuple(h) for h in ck.history]
            plateaus = ck.plateau
            initial_mdl = ck.initial_mdl
            total_sweeps = ck.num_sweeps
            timings = ck.timings
            prop_stats = ck.proposal_stats
            stats = ck.resilience
            stats.resumed_from = str(resume_from)
            degradation = _Degradation.from_dict(ck.degradation)
            sim_offset = ck.sim_time_s
            integrity_state = ck.integrity
            if ck.observability:
                obs.load_state(ck.observability)
            obs.instant(
                "resume", "checkpoint",
                path=str(resume_from), plateau=plateaus,
            )
            if checkpoint_dir is None:
                checkpoint_dir = resume_from
            logger.info(
                "resumed from %s at plateau %d (B=%s)",
                resume_from, plateaus,
                search.best.num_blocks if search.best else "?",
            )
        else:
            # initial partition: every vertex its own block (the initial
            # rebuild runs device kernels, so it retries like a phase)
            bmap0 = np.arange(num_vertices, dtype=INDEX_DTYPE)

            def build_initial(_attempt: int) -> float:
                blockmodel = rebuild_blockmodel(
                    device, graph, bmap0, num_vertices
                )
                return description_length(blockmodel, num_vertices, total_weight)

            initial_mdl = with_retries(
                build_initial, RetryPolicy.from_config(rcfg), seed=config.seed,
                label="initial rebuild", stats=stats, budget=budget,
                logger=logger, obs=obs,
            )
            search.update(
                PartitionSnapshot(
                    num_blocks=num_vertices, mdl=initial_mdl, bmap=bmap0
                )
            )

        checkpoint_every = rcfg.checkpoint_every
        if checkpoint_dir is not None and checkpoint_every == 0:
            checkpoint_every = 1

        def restore_last_assignment():
            """Known-good assignment from the last checkpoint (repair rung 3)."""
            source = checkpoint_dir if checkpoint_dir is not None else resume_from
            if source is None or not has_run_checkpoint(source):
                return None
            snapshot = load_run_checkpoint(source).best_snapshot()
            if snapshot is None:
                return None
            return (
                np.asarray(snapshot.bmap, dtype=INDEX_DTYPE).copy(),
                snapshot.num_blocks,
            )

        integrity = IntegrityManager(
            config.integrity, device, graph,
            budget=budget, resilience_stats=stats, obs=obs,
            restore_assignment=restore_last_assignment,
        )
        if integrity_state:
            integrity.stats = IntegrityStats.from_dict(integrity_state)

        def write_checkpoint(directory: Optional[PathLike] = None) -> None:
            save_run_checkpoint(
                RunCheckpoint(
                    plateau=plateaus,
                    initial_mdl=initial_mdl,
                    num_sweeps=total_sweeps,
                    history=list(search.history),
                    snapshots=list(search.snapshots),
                    graph_fingerprint=fingerprint,
                    config={"seed": config.seed},
                    timings=timings,
                    proposal_stats=prop_stats,
                    resilience=stats,
                    degradation=degradation.to_dict(),
                    sim_time_s=device.sim_time_s - sim_start + sim_offset,
                    algorithm=self.name,
                    observability=obs.to_state(),
                    integrity=integrity.stats.to_dict(),
                ),
                directory if directory is not None else checkpoint_dir,
            )
            stats.checkpoints_written += 1
            obs.count(
                "checkpoints_written_total",
                help="run checkpoints written to disk",
            )

        converged = True
        cancel_reason: Optional[str] = None
        try:
            while not search.done():
                if cancel is not None:
                    cancel.check("plateau")
                if plateaus + 1 > self.max_plateaus:
                    converged = False
                    if not rcfg.best_effort:
                        raise ConvergenceError(
                            f"golden-section search did not collapse within "
                            f"{self.max_plateaus} plateaus (best so far: "
                            f"B={search.best.num_blocks if search.best else '?'}); "
                            f"set config.resilience.best_effort for the "
                            f"incumbent partition instead"
                        )
                    logger.warning("plateau budget exhausted; returning incumbent")
                    break
                plateau_idx = plateaus
                plateaus += 1

                with obs.span("plateau", "plateau", index=plateau_idx) as p_span:
                    t0 = time.perf_counter()
                    with obs.span("golden_section", "phase", plateau=plateau_idx):
                        target, resume = search.next_target()
                    timings.golden_section_s += time.perf_counter() - t0

                    threshold = (
                        config.delta_entropy_threshold1
                        if search.threshold_regime() == 1
                        else config.delta_entropy_threshold2
                    )
                    merge, move = self._run_plateau_resilient(
                        graph, resume, target, threshold, initial_mdl,
                        plateau_idx, streams, degradation, timings, stats,
                        budget, integrity=integrity, cancel=cancel,
                    )
                    # post-plateau site: move.mdl was computed from this very
                    # blockmodel, so the audit can also check MDL drift here
                    integrity.site(
                        move.bmap, move.blockmodel, "golden_section",
                        tracked_mdl=move.mdl,
                    )
                    prop_stats.merge_proposals += merge.num_proposals_evaluated
                    prop_stats.merge_proposal_time_s += merge.proposal_time_s
                    prop_stats.move_proposals += move.num_proposals
                    prop_stats.move_proposal_time_s += move.proposal_time_s
                    total_sweeps += move.num_sweeps

                    t0 = time.perf_counter()
                    with obs.span("golden_section", "phase", plateau=plateau_idx):
                        search.update(
                            PartitionSnapshot(
                                num_blocks=merge.num_blocks, mdl=move.mdl,
                                bmap=move.bmap,
                            )
                        )
                    timings.golden_section_s += time.perf_counter() - t0
                    p_span.set(
                        target=target, num_blocks=merge.num_blocks,
                        mdl=move.mdl, sweeps=move.num_sweeps,
                    )
                logger.debug(
                    "plateau %d: B=%d MDL=%.2f (%d sweeps)",
                    plateaus, merge.num_blocks, move.mdl, move.num_sweeps,
                )
                if (
                    checkpoint_dir is not None
                    and checkpoint_every > 0
                    and plateaus % checkpoint_every == 0
                ):
                    write_checkpoint()
                # Release this plateau's blockmodels, and with them their
                # cached lookup tables, before the next plateau builds its own.
                merge = move = None
        except RunCancelled as exc:
            # A cancelled-but-progressed run degrades to best-effort:
            # return the incumbent partition and let the caller read the
            # reason off the result.  A partially executed plateau is
            # discarded wholesale — the search state only ever holds
            # plateau-boundary snapshots, so resume stays deterministic.
            if search.best is None:
                raise
            # A sweep-boundary cancel aborts mid-plateau, after the
            # counter already advanced; rewind to the boundary (one
            # history entry per completed update, incl. the initial
            # singleton) so a checkpoint resumes with the same
            # plateau_idx — and therefore the same RNG streams — an
            # uninterrupted run would use.
            plateaus = len(search.history) - 1
            cancel_reason = exc.reason
            converged = False
            obs.count(
                "run_cancellations_total",
                help="runs stopped by cooperative cancellation",
            )
            obs.instant(
                "cancelled", "cancel",
                reason=exc.reason, where=exc.where, plateau=plateaus,
            )
            logger.warning(
                "run cancelled (%s) at plateau %d; returning best-so-far "
                "partition", exc.reason, plateaus,
            )
        except KeyboardInterrupt:
            # Ctrl-C is not silent data loss: persist a final resumable
            # snapshot when the run has a checkpoint directory, then let
            # the interrupt propagate to the caller (the CLI maps it to
            # a distinct exit status).
            if checkpoint_dir is not None and search.best is not None:
                # Same rewind as the cancellation path: the interrupt
                # may land mid-plateau, after the counter advanced past
                # the last boundary snapshot.
                plateaus = len(search.history) - 1
                write_checkpoint()
                logger.warning(
                    "interrupted; final checkpoint written to %s",
                    checkpoint_dir,
                )
            raise

        best = search.best
        if best is None:
            raise PartitionError("search finished without any evaluated partition")
        final_checkpoint_dir = checkpoint_dir
        if (
            final_checkpoint_dir is None
            and cancel_reason is not None
            and cancel is not None
            and getattr(cancel, "checkpoint_dir", None) is not None
            and plateaus >= 1
        ):
            # The token carries a parking spot for cancelled runs that
            # crossed the progress threshold (the job server's per-job
            # checkpoint directory).
            final_checkpoint_dir = cancel.checkpoint_dir
        if final_checkpoint_dir is not None:
            # final snapshot so a post-mortem resume is a no-op continue
            write_checkpoint(final_checkpoint_dir)
        obs.gauge_set("final_mdl", best.mdl, help="MDL of the final partition")
        obs.gauge_set(
            "final_num_blocks", best.num_blocks,
            help="block count of the final partition",
        )
        obs.gauge_set("num_plateaus", plateaus, help="golden-section plateaus run")
        obs.gauge_set("num_sweeps", total_sweeps, help="total MCMC sweeps run")
        return PartitionResult(
            partition=best.bmap,
            num_blocks=best.num_blocks,
            mdl=best.mdl,
            history=list(search.history),
            timings=timings,
            proposal_stats=prop_stats,
            total_time_s=time.perf_counter() - run_start,
            sim_time_s=device.sim_time_s - sim_start + sim_offset,
            num_sweeps=total_sweeps,
            converged=converged,
            cancelled=cancel_reason,
            algorithm=self.name,
            resilience=stats,
            integrity=integrity.stats,
        )


def partition_graph(
    graph: DiGraphCSR,
    config: Optional[SBPConfig] = None,
    device: Optional[Device] = None,
) -> PartitionResult:
    """Convenience one-shot: ``GSAPPartitioner(config, device).partition(graph)``."""
    return GSAPPartitioner(config=config, device=device).partition(graph)
