"""EDiSt-like distributed SBP (Wanye et al., CLUSTER 2023), simulated.

EDiSt distributes SBP over compute nodes: each rank owns a vertex shard
and a replica of the blockmodel, proposes and evaluates moves for its
shard locally, then exchanges accepted moves **all-to-all** so every
replica converges before the next round.  The paper's related-work
section singles out that "the all-to-all communication pattern in EDiSt
becomes a significant bottleneck as the number of nodes increases".

Without MPI in this environment, the ranks execute sequentially
in-process (the same substitution style as the simulated GPU), but the
communication layer is a real subsystem (:mod:`repro.dist`): accepted
moves travel as CRC32-framed, sequence-numbered messages through a
fault-plan-driven channel, lost or corrupt frames trigger bounded
retransmission, a heartbeat failure detector spots crashed ranks at the
round barrier, and survivors re-shard and continue after a deterministic
recovery audit.

Each replica is GSAP's CSR blockmodel, kept as GSAP keeps it (see
:mod:`.common`).  Rank-local evaluation is one call of the CPU engines'
shared move body, :func:`~repro.baselines.moves.score_moves`, per shard
against the replica frozen at round start: the proposals are drawn
vertex by vertex, then the shard is scored in one pass by the host
bodies GSAP's vertex-move kernels run.  Neither the replica nor
``Bmap`` changes before the apply phase, which gathers the round's
global move set in rank order and folds it into the replica with one
:meth:`~repro.blockmodel.incremental.IncrementalBlockmodel.apply_batch`
(:func:`~repro.baselines.moves.apply_accepted`).  Two oracles
pin the distributed layer down (see ``docs/distributed.md``): a
fault-free run is byte-identical to the direct in-process exchange, and
recovery runs land within an MDL tolerance of fault-free ones.
"""

from __future__ import annotations

import os
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..blockmodel.entropy import description_length
from ..blockmodel.incremental import IncrementalBlockmodel
from ..config import SBPConfig
from ..core.vertex_move import sweep_converged
from ..dist import (
    MOVE_RECORD_BYTES,
    Communicator,
    CommStats,
    DistStats,
    MoveLogRing,
    RankLanes,
    audit_recovery,
    pack_moves,
    recovery_cost_s,
    shard_vertices,
    unpack_moves,
)
from ..errors import CommError, PartitionError
from ..graph.csr import DiGraphCSR
from ..logging_util import get_logger
from ..obs import FlightRecorder, Observability
from ..resilience.faults import FaultPlan
from ..resilience.retry import FaultBudget, RetryPolicy
from .common import CPUSBPEngine, MovePhaseResult
from .moves import Move, apply_accepted, score_moves
# Unused here; they stay module attributes so tools that wrap the EDiSt
# entry points by name still find them.
from ..blockmodel.delta import hastings_correction_dense, move_delta_dense  # noqa: F401
from .moves import propose_from_blockmodel, vertex_neighborhood  # noqa: F401

__all__ = ["CommStats", "DistStats", "EDiStPartitioner", "MOVE_RECORD_BYTES"]

logger = get_logger("baselines.edist")


class EDiStPartitioner(CPUSBPEngine):
    """Distributed-SBP baseline riding on the simulated message fabric.

    Parameters
    ----------
    num_ranks:
        Simulated compute nodes; each owns one contiguous vertex shard.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        communication faults (``msg_*``, ``rank_crash``) are injected
        into the interconnect.  Device fault kinds in the same plan are
        ignored here: the blockmodel kernels run on a private device
        that no plan reaches.
    flight_dir:
        When set, a detected rank crash dumps the flight-recorder ring
        (recent round events + failure-detector verdict gossip) into
        this directory as JSONL, one file per crash.
    """

    name = "EDiSt"

    def __init__(
        self,
        config: Optional[SBPConfig] = None,
        num_ranks: int = 4,
        max_plateaus: int = 128,
        fault_plan: Optional[FaultPlan] = None,
        flight_dir: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        super().__init__(config, max_plateaus)
        if num_ranks < 1:
            raise PartitionError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.fault_plan = fault_plan
        self.flight_dir = None if flight_dir is None else Path(flight_dir)
        self.comm = DistStats()
        self.obs = Observability.from_config(self.config.observability)
        self.flight = FlightRecorder(capacity=512)
        #: per-rank trace lanes + metric scopes; built when obs is on
        self.lanes: Optional[RankLanes] = None
        self._runtime: Optional[Communicator] = None
        self._shard_layouts: set = set()
        self._warned_empty = False

    # ------------------------------------------------------------------
    def _shards(self, num_vertices: int) -> List[np.ndarray]:
        """Contiguous vertex shards over the *configured* rank count."""
        return shard_vertices(num_vertices, self.num_ranks)

    def _live_shards(self, num_vertices: int) -> Dict[int, np.ndarray]:
        """Current shard per live rank, re-sharded after any crash.

        Empty shards (more ranks than vertices) are explicit: counted
        once per distinct layout on ``comm.empty_shards`` (and the
        ``dist_empty_shards_total`` metric), warned about once per run,
        and naturally skipped by the local phase and the zero-payload
        message rule.
        """
        live = sorted(self._runtime.live) if self._runtime else list(
            range(self.num_ranks)
        )
        shards = shard_vertices(num_vertices, len(live))
        layout_key = (num_vertices, tuple(live))
        if layout_key not in self._shard_layouts:
            self._shard_layouts.add(layout_key)
            empties = sum(1 for shard in shards if len(shard) == 0)
            if empties:
                self.comm.empty_shards += empties
                self.obs.count(
                    "dist_empty_shards_total", empties,
                    help="empty vertex shards (more ranks than vertices)",
                )
                if not self._warned_empty:
                    self._warned_empty = True
                    logger.warning(
                        "%d of %d ranks own an empty vertex shard "
                        "(%d vertices over %d ranks); they will idle",
                        empties, len(live), num_vertices, len(live),
                    )
        return dict(zip(live, shards))

    # ------------------------------------------------------------------
    def partition(self, graph: DiGraphCSR):
        resilience = self.config.resilience
        self.comm = DistStats()
        self._shard_layouts = set()
        self._warned_empty = False
        self._runtime = Communicator(
            self.num_ranks,
            plan=self.fault_plan,
            seed=self.config.seed,
            retry_policy=RetryPolicy.from_config(
                resilience, retry_on=(CommError,)
            ),
            budget=FaultBudget(resilience.fault_budget),
            stats=self.comm,
            obs=self.obs,
        )
        self.flight = FlightRecorder(capacity=512)
        self._runtime.flight = self.flight
        self.lanes = RankLanes(self.num_ranks) if self.obs.enabled else None
        self._runtime.collect_flows = self.lanes is not None
        result = super().partition(graph)
        result.sim_time_s = self._runtime.sim_time_s
        result.dist = {
            **self.comm.to_dict(),
            "num_ranks": self.num_ranks,
            "live_ranks": sorted(self._runtime.live),
            "sim_time_s": self._runtime.sim_time_s,
        }
        if self.obs.enabled:
            self.obs.gauge_set("dist_ranks", self.num_ranks,
                               help="configured rank count")
            self.obs.gauge_set("dist_live_ranks", len(self._runtime.live),
                               help="ranks alive at run end")
            if self.comm.recovery_s:
                self.obs.observe("dist_recovery_seconds",
                                 self.comm.recovery_s,
                                 help="simulated time spent in rank recovery")
        if self.lanes is not None and self.lanes.rounds:
            summary = self.lanes.summary()
            result.dist["analysis"] = summary
            result.dist["lane_wall_s"] = self.lanes.clock_s
            self.obs.gauge_set(
                "dist_imbalance", summary["imbalance"],
                help="mean per-round max/mean compute-time ratio",
            )
            if summary["straggler"] is not None:
                self.obs.gauge_set(
                    "dist_straggler_rank", summary["straggler"]["rank"],
                    help="rank that most often set the round barrier",
                )
            for rec in self.lanes.rounds:
                self.obs.series_append(
                    "dist_round_compute_seconds", rec.round_index,
                    rec.max_compute_s,
                    help="slowest rank's compute time per round",
                )
                self.obs.series_append(
                    "dist_round_comm_seconds", rec.round_index,
                    rec.comm_s + rec.retransmit_s,
                    help="exchange + retransmit-backoff time per round",
                )
                waits = [rec.max_compute_s - c
                         for c in rec.compute_s.values()]
                self.obs.series_append(
                    "dist_round_barrier_wait_seconds", rec.round_index,
                    max(waits, default=0.0),
                    help="worst single-rank barrier wait per round",
                )
        return result

    # ------------------------------------------------------------------
    def _recover(self, failed_ranks: List[int], bmap: np.ndarray,
                 ring: MoveLogRing) -> None:
        """Survivors' recovery: audit the replicated log, re-shard, go on."""
        with self.obs.span("dist_recovery", "dist",
                           failed_ranks=list(failed_ranks)):
            audit_recovery(ring, bmap)
            cost = recovery_cost_s(ring.replayable_moves())
            self.comm.recoveries += 1
            self.comm.recovery_s += cost
            self._runtime.sim_time_s += cost
            self.obs.count("dist_recoveries_total",
                           help="rank-crash recoveries completed")
        survivors = sorted(self._runtime.live)
        logger.warning(
            "rank(s) %s declared dead; re-sharded over %d survivor(s) "
            "after recovery audit (%d logged rounds replayable)",
            failed_ranks, len(survivors), len(ring),
        )

    def _move_phase(
        self,
        incremental: IncrementalBlockmodel,
        bmap: np.ndarray,
        rng: np.random.Generator,
        threshold: float,
        initial_mdl_scale: float,
    ) -> MovePhaseResult:
        config = self.config
        graph = incremental.graph
        model = incremental.blockmodel
        num_vertices = graph.num_vertices
        total_weight = graph.total_edge_weight
        comm = self._runtime
        if comm is None:
            raise PartitionError("EDiSt move phase needs an active runtime")
        ring = MoveLogRing(bmap)

        mdl = description_length(model, num_vertices, total_weight)
        tolerance = threshold * abs(initial_mdl_scale)
        window = deque(maxlen=config.delta_entropy_moving_avg_window)
        proposals = 0
        proposal_time = 0.0
        sweeps = 0
        attempts = 0
        accepted = 0

        while sweeps < config.max_num_nodal_itr:
            attempts += 1
            if attempts > config.max_num_nodal_itr + self.num_ranks + 8:
                raise PartitionError(
                    "distributed move phase failed to make progress "
                    "(crash/recovery loop)"
                )
            shard_map = self._live_shards(num_vertices)
            # --- local phase: every rank evaluates its shard against the
            # replica frozen at round start (stale reads are the point)
            lanes = self.lanes
            compute_s: Dict[int, float] = {}
            accepted_per_rank: Dict[int, List[Move]] = {}
            for rank in sorted(shard_map):
                rank_t0 = time.perf_counter() if lanes else 0.0
                order = rng.permutation(shard_map[rank])
                accepted_per_rank[rank], prop_s = score_moves(
                    graph, model, bmap, order, rng, config.beta
                )
                proposal_time += prop_s
                proposals += len(order)
                if lanes:
                    compute_s[rank] = time.perf_counter() - rank_t0

            # --- all-to-all: each rank broadcasts its accepted moves as
            # framed messages; loss/corruption retransmits and crash
            # detection happen inside the communicator
            payloads = {
                rank: pack_moves(moves) if moves else b""
                for rank, moves in accepted_per_rank.items()
            }
            round_index = comm.round_index
            backoff_before = self.comm.backoff_s
            recovery_before = self.comm.recovery_s
            exchange_t0 = time.perf_counter()
            outcome = comm.exchange(payloads)
            comm_wall_s = time.perf_counter() - exchange_t0
            retransmit_s = self.comm.backoff_s - backoff_before
            flows = list(comm.last_round_flows)
            moves_per_rank = {
                rank: len(moves) for rank, moves in accepted_per_rank.items()
            }
            self.flight.append("dist_round", {
                "round": round_index,
                "moves": {str(r): n for r, n in sorted(moves_per_rank.items())},
                "aborted": not outcome.ok,
                "failed_ranks": list(outcome.failed_ranks),
            })
            if not outcome.ok:
                # crash detected: the round is discarded everywhere
                # (deterministically — no survivor applied anything),
                # survivors recover and the sweep re-runs re-sharded
                self._recover(outcome.failed_ranks, bmap, ring)
                if lanes:
                    lanes.record_round(
                        round_index=round_index, compute_s=compute_s,
                        comm_s=comm_wall_s, retransmit_s=retransmit_s,
                        recovery_s=self.comm.recovery_s - recovery_before,
                        aborted=True, failed_ranks=outcome.failed_ranks,
                        flows=flows, moves=moves_per_rank,
                        payload_bytes={r: len(p) for r, p in payloads.items()},
                    )
                if self.flight_dir is not None:
                    victims = "-".join(str(r) for r in outcome.failed_ranks)
                    self.flight.dump(
                        self.flight_dir
                        / f"rank_crash_round{round_index:05d}.jsonl",
                        reason=f"rank_crash: rank(s) {victims} declared "
                               f"dead in round {round_index}",
                    )
                continue

            # replica-consistency oracle: every survivor must have
            # received exactly the payload each peer broadcast
            for dst, from_src in (outcome.delivered or {}).items():
                for src, payload in from_src.items():
                    if payload != payloads.get(src, b""):
                        raise PartitionError(
                            f"replica exchange diverged: rank {dst} "
                            f"received a payload from rank {src} that "
                            f"does not match what was broadcast"
                        )

            # --- apply phase: every replica applies the global move set
            # in rank order as one batch (the shared model/bmap stand in
            # for the replicas, exactly like the sequential-rank
            # substitution)
            apply_t0 = time.perf_counter() if lanes else 0.0
            round_moves: List[Move] = []
            for rank in sorted(accepted_per_rank):
                moves = accepted_per_rank[rank]
                if rank != min(accepted_per_rank):
                    # every other rank's moves arrive off the wire; use
                    # the lowest live rank's inbox as the canonical copy
                    received = (outcome.delivered or {}).get(
                        min(accepted_per_rank), {}
                    ).get(rank)
                    if received:
                        moves = unpack_moves(received)
                round_moves.extend(moves)
            model = apply_accepted(incremental, bmap, round_moves)
            accepted += len(round_moves)
            ring.append(round_index, round_moves)
            if lanes:
                lanes.record_round(
                    round_index=round_index, compute_s=compute_s,
                    comm_s=comm_wall_s, retransmit_s=retransmit_s,
                    apply_s=time.perf_counter() - apply_t0,
                    flows=flows, moves=moves_per_rank,
                    payload_bytes={r: len(p) for r, p in payloads.items()},
                )

            new_mdl = description_length(model, num_vertices, total_weight)
            delta_mdl, mdl = mdl - new_mdl, new_mdl
            sweeps += 1
            if sweep_converged(window, delta_mdl, tolerance):
                break
        return MovePhaseResult(
            mdl=mdl,
            num_sweeps=sweeps,
            num_proposals=proposals,
            proposal_time_s=proposal_time,
            num_moves_accepted=accepted,
        )
