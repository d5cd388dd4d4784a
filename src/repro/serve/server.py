"""Overload-safe asyncio job server for partitioning-as-a-service.

:class:`PartitionServer` accepts concurrent partition requests and stays
correct and bounded under overload:

* **Admission control** — a bounded queue plus an in-flight work-byte
  cap; saturated submissions are rejected with an explicit
  ``retry_after_s`` hint (:class:`~repro.serve.admission.AdmissionController`).
* **Deadlines** — each job carries a
  :class:`~repro.serve.cancel.CancelToken` created *at submission*, so
  queue wait counts against the deadline.  A fired deadline returns the
  best partition found so far (``timed_out`` outcome); past the
  progress threshold the run also persists a resumable checkpoint.
* **Retries** — jobs dying to transient device faults are re-run via
  :func:`~repro.resilience.retry.with_retries` under a per-job fault
  budget, after the partitioner's own plateau-level resilience gives up.
* **Graceful degradation** — a sliding-window overload detector drives
  the :class:`~repro.serve.degradation.DegradationLadder`: optional
  work (auditing, fine refinement, long MCMC) is shed before jobs are.
* **Result cache + single-flight** — repeat requests are served from an
  LRU keyed by content digests; concurrent identical requests coalesce
  onto one computation.
* **Graceful shutdown** — ``drain`` finishes everything accepted;
  ``checkpoint`` cancels running jobs into resumable checkpoints and
  parks un-started ones on disk.  Either way, every accepted job
  resolves to an explicit outcome — none are silently lost.

The partitioning itself runs on a thread pool (it is CPU-bound numpy
work); the event loop only coordinates.  Each job gets its own
simulated device and its own tracer (the shared hub's metrics registry
is attached to per-job hubs, so counters aggregate while span stacks
stay single-threaded).

Operational observability (the "flight deck"):

* **End-to-end tracing** — every job runs under a per-job
  :class:`~repro.obs.trace.Tracer` whose spans (queue wait, admission
  verdict, attempts, partitioner phases, kernels) all carry the
  client-minted ``trace_id``; with ``trace_dir`` set the server writes
  one Chrome trace per terminal job.
* **Wide events** — one structured canonical log line per terminal job
  covering every decision made on its behalf (admission, degradation
  rung, cache/single-flight role, retries, deadline, phase timings,
  result quality), emitted through the logger and kept in the flight
  recorder.
* **SLO engine** — terminal jobs feed a
  :class:`~repro.obs.slo.SLOEngine`; error-budget and burn-rate gauges
  land on the shared registry per size class.
* **Flight recorder** — a bounded ring of recent spans/wide
  events/transitions, dumped atomically on degradation escalation
  (deferred to the next terminal job so the dump carries its wide
  event), on a worker crash, and on demand (:meth:`dump_flight`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..config import SBPConfig
from ..core.partitioner import GSAPPartitioner
from ..core.result import PartitionResult
from ..errors import (
    AdmissionRejected,
    DeviceError,
    ReproError,
    RetryExhaustedError,
    RunCancelled,
)
from ..gpusim import A4000, Device
from ..graph.csr import DiGraphCSR
from ..integrity import config_sha256, graph_sha256
from ..logging_util import get_logger
from ..obs import Observability
from ..obs.export import prometheus_text, write_chrome_trace
from ..obs.flight import FlightRecorder
from ..obs.slo import BURN_WINDOWS, SLOEngine, size_class_of
from ..obs.trace import TraceContext, Tracer
from ..resilience.faults import install_fault_injector
from ..resilience.retry import FaultBudget, RetryPolicy, with_retries
from .admission import AdmissionController
from .cache import ResultCache, SingleFlight, cache_key
from .cancel import REASON_SHUTDOWN, CancelToken
from .degradation import LEVEL_NAMES, DegradationLadder, OverloadDetector
from .job import JobOutcome, JobSpec, graph_work_bytes, park_job

#: Schema tag of the per-job canonical log line / flight-recorder event.
WIDE_EVENT_SCHEMA = "gsap-serve-wide-event/1"

logger = get_logger("serve")

_SENTINEL = object()


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`PartitionServer`.

    Parameters
    ----------
    workers:
        Partitioning threads.  ``0`` accepts jobs without ever starting
        them — useful for deterministic admission/shutdown tests
        (shutdown then parks or cancels the backlog; ``drain`` mode is
        coerced to ``checkpoint`` since nothing could drain it).
    max_queue_depth / max_inflight_bytes:
        Admission limits (see :class:`AdmissionController`).
    cache_capacity:
        LRU entries in the result cache; ``0`` disables caching and
        single-flight dedup.
    checkpoint_root:
        Directory jobs checkpoint/park under (per-job subdirectories).
        ``None`` disables both deadline checkpoints and parking.
    default_deadline_s:
        Deadline applied to submissions that don't carry their own.
    retry_attempts / retry_base_delay_s / fault_budget:
        Job-level retry loop: total attempts, backoff base, and the
        per-job cap on absorbed faults (``None`` = uncapped).
    trace_dir:
        Directory per-job Chrome traces are written to (one
        ``<job_id>.trace.json`` per terminal job); ``None`` disables
        per-job trace files (spans still feed the flight recorder).
    flight_dir:
        Directory flight-recorder dumps land in (crash, escalation, or
        the ``dump`` verb without an explicit path).  ``None`` keeps
        the recorder in-memory only unless a dump names a path.
    flight_recorder_capacity:
        Ring-buffer size of the flight recorder.
    """

    workers: int = 2
    max_queue_depth: int = 16
    max_inflight_bytes: Optional[int] = None
    cache_capacity: int = 32
    checkpoint_root: Optional[str] = None
    default_deadline_s: Optional[float] = None
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.01
    fault_budget: Optional[int] = None
    trace_dir: Optional[str] = None
    flight_dir: Optional[str] = None
    flight_recorder_capacity: int = 2048

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers!r}")
        if self.retry_attempts < 1:
            raise ValueError(
                f"retry_attempts must be >= 1, got {self.retry_attempts!r}"
            )
        if self.flight_recorder_capacity < 1:
            raise ValueError(
                f"flight_recorder_capacity must be >= 1, got "
                f"{self.flight_recorder_capacity!r}"
            )


class _Queued:
    """One accepted job travelling through the server."""

    __slots__ = ("job", "token", "future", "level", "tracer",
                 "queue_span", "sf_role")

    def __init__(self, job: JobSpec, token: CancelToken,
                 future: "asyncio.Future[JobOutcome]",
                 tracer: Tracer, sf_role: Optional[str] = None) -> None:
        self.job = job
        self.token = token
        self.future = future
        self.level = 0
        self.tracer = tracer
        self.queue_span = -1
        self.sf_role = sf_role


class PartitionServer:
    """In-process partitioning service; see the module docstring.

    Use as an async context manager, or call :meth:`start` /
    :meth:`shutdown` explicitly.  All public coroutine methods must run
    on the same event loop.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        observability: Optional[Observability] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], None]] = None,
        fault_plan_factory: Optional[Callable[[JobSpec, int], object]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.obs = observability or Observability(enabled=True)
        self._clock = clock
        self._sleep = sleep if sleep is not None else time.sleep
        self._fault_plan_factory = fault_plan_factory
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            max_inflight_bytes=self.config.max_inflight_bytes,
        )
        self.cache = ResultCache(self.config.cache_capacity)
        self.singleflight = SingleFlight()
        self.ladder = DegradationLadder()
        self.detector = OverloadDetector(clock=clock)
        self.slo = SLOEngine(clock=clock)
        self.flight = FlightRecorder(
            capacity=self.config.flight_recorder_capacity, clock=clock
        )
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._workers: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._running: Dict[str, _Queued] = {}
        self._accepted: List["asyncio.Future[JobOutcome]"] = []
        self._job_ids = itertools.count()
        self._dump_ids = itertools.count(1)
        self._started = False
        self._started_at = clock()
        self._shutting_down = False
        self._shutdown_mode: Optional[str] = None
        self._pending_flight_dump: Optional[str] = None
        self.outcomes_by_status: Dict[str, int] = {}

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "PartitionServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.config.workers > 0:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="gsap-serve",
            )
            for idx in range(self.config.workers):
                self._workers.append(
                    asyncio.ensure_future(self._worker_loop(idx))
                )
        logger.info(
            "server started: workers=%d queue<=%d cache=%d",
            self.config.workers,
            self.config.max_queue_depth,
            self.config.cache_capacity,
        )

    # ------------------------------------------------------------------
    # submission (the in-process client API)
    # ------------------------------------------------------------------
    async def submit(
        self,
        graph: DiGraphCSR,
        config: Optional[SBPConfig] = None,
        *,
        deadline_s: Optional[float] = None,
        use_cache: bool = True,
        job_id: Optional[str] = None,
        tenant: Optional[str] = None,
        trace_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
    ) -> JobOutcome:
        """Submit one partition request and await its terminal outcome.

        Never raises for service-level conditions — rejection, timeout,
        fault exhaustion and shutdown all come back as the outcome's
        ``status``.  Only programming errors (bad arguments) raise.

        *trace_id*/*parent_span_id* propagate the client's trace
        context (a fresh trace is minted when absent); *tenant* labels
        the job's spans and wide event for per-tenant attribution.
        """
        if not self._started:
            await self.start()
        config = config or SBPConfig()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        job_id = job_id or f"job-{next(self._job_ids):06d}"
        if trace_id is None:
            trace_id = TraceContext.mint().trace_id
        work_bytes = graph_work_bytes(graph)
        key = cache_key(graph_sha256(graph), config_sha256(config))
        job = JobSpec(
            job_id=job_id,
            graph=graph,
            config=config,
            cache_key=key,
            work_bytes=work_bytes,
            submitted_at=self._clock(),
            deadline_s=deadline_s,
            tenant=tenant,
            trace_id=trace_id,
            parent_span_id=parent_span_id,
        )
        tracer = Tracer(enabled=self.obs.enabled, clock=self._clock)
        root_args = {"job_id": job_id, "trace_id": trace_id}
        if tenant is not None:
            root_args["tenant"] = tenant
        if parent_span_id is not None:
            root_args["parent_span_id"] = parent_span_id
        tracer.begin("job", "serve", **root_args)

        # -- admission gate --------------------------------------------
        try:
            self.admission.try_admit(work_bytes, self._shutting_down)
        except AdmissionRejected as exc:
            self.obs.count(
                "serve_jobs_rejected_total",
                help="submissions refused by admission control",
            )
            self.obs.instant(
                "rejected", "serve", job=job_id, reason=exc.reason,
                retry_after_s=exc.retry_after_s,
            )
            tracer.instant(
                "admission", "serve", verdict="rejected",
                reason=exc.reason, retry_after_s=exc.retry_after_s,
            )
            outcome = JobOutcome(
                job_id=job_id,
                status="rejected",
                reject_reason=exc.reason,
                retry_after_s=exc.retry_after_s,
                error=str(exc),
            )
            self._complete_job(job, outcome, tracer)
            return outcome
        self.obs.count(
            "serve_jobs_accepted_total", help="submissions admitted"
        )
        tracer.instant("admission", "serve", verdict="accepted")
        self._observe_pressure()

        caching = use_cache and self.config.cache_capacity > 0
        claimed = False
        sf_role: Optional[str] = None
        try:
            # -- result cache ------------------------------------------
            if caching:
                cached = self.cache.get(key)
                if cached is not None:
                    self.obs.count(
                        "serve_cache_hits_total",
                        help="submissions served from the result cache",
                    )
                    tracer.instant("cache_hit", "serve")
                    outcome = JobOutcome(
                        job_id=job_id, status="completed",
                        result=cached, cache_hit=True,
                    )
                    self._complete_job(job, outcome, tracer)
                    self._finish(outcome, work_bytes)
                    return outcome
                self.obs.count(
                    "serve_cache_misses_total",
                    help="submissions that missed the result cache",
                )

                # -- single-flight dedup -------------------------------
                claimed, flight = self.singleflight.claim(key)
                sf_role = "leader" if claimed else None
                if not claimed:
                    self.obs.count(
                        "serve_singleflight_coalesced_total",
                        help="submissions coalesced onto an in-flight twin",
                    )
                    wait_idx = tracer.begin("singleflight_wait", "serve")
                    shared = await flight
                    tracer.end(wait_idx)
                    if shared is not None:
                        outcome = JobOutcome(
                            job_id=job_id, status="completed",
                            result=shared, coalesced=True,
                        )
                        self._complete_job(
                            job, outcome, tracer, sf_role="follower"
                        )
                        self._finish(outcome, work_bytes)
                        return outcome
                    # leader yielded nothing shareable (degraded, timed
                    # out, failed); run this job individually.
                    claimed, _ = self.singleflight.claim(key)
                    sf_role = "recomputed" if claimed else None

            token = CancelToken(
                deadline_s,
                clock=self._clock,
                checkpoint_dir=self._job_dir(job_id),
            )
            future: "asyncio.Future[JobOutcome]" = (
                asyncio.get_running_loop().create_future()
            )
            queued = _Queued(job, token, future, tracer, sf_role=sf_role)
            queued.queue_span = tracer.begin("queue_wait", "serve")
            self._accepted.append(future)
            if self._shutdown_mode == "checkpoint":
                # shutdown raced us past the admission gate; never
                # enqueue behind the worker sentinels — park directly.
                self._park_or_cancel(queued)
            else:
                self._queue.put_nowait(queued)
        except BaseException:
            # failed before the job was handed over to a worker: undo
            # the reservation (and the single-flight claim) ourselves.
            if claimed:
                self.singleflight.forget(key)
            self.admission.release(work_bytes)
            raise
        # From here on a worker (or the shutdown path) owns the job and
        # resolves the future on every path, including our cancellation.
        return await asyncio.shield(future)

    def submit_task(self, graph, config=None, **kwargs) -> "asyncio.Task":
        """Fire-and-await-later variant of :meth:`submit`."""
        return asyncio.ensure_future(self.submit(graph, config, **kwargs))

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    async def _worker_loop(self, idx: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _SENTINEL:
                break
            queued: _Queued = item
            job = queued.job
            if queued.future.done():
                continue
            if self._shutdown_mode == "checkpoint":
                self._park_or_cancel(queued)
                continue
            queued.tracer.end(queued.queue_span)
            wait_s = max(0.0, self._clock() - job.submitted_at)
            self.obs.observe(
                "serve_queue_wait_seconds", wait_s,
                help="time from admission to execution start",
            )
            # degraded fidelity is sampled once, at job start
            eff_config, level = self.ladder.apply_config(job.config)
            queued.level = level
            self._running[job.job_id] = queued
            started = self._clock()
            crashed = False
            try:
                if queued.token.cancelled:
                    raise RunCancelled(
                        f"job {job.job_id} expired before start",
                        reason=queued.token.reason or "cancelled",
                        where="queue",
                    )
                result, retries = await loop.run_in_executor(
                    self._executor,
                    self._execute_job, job, eff_config, queued.token,
                    queued.tracer,
                )
                outcome = self._classify_result(
                    job, result, retries, wait_s, started, level
                )
            except RunCancelled as exc:
                outcome = self._classify_cancel(
                    job, exc, wait_s, started, level
                )
            except (RetryExhaustedError, ReproError) as exc:
                self.singleflight.forget(job.cache_key)
                self.obs.count(
                    "serve_jobs_failed_total",
                    help="jobs that exhausted retries or hit hard errors",
                )
                logger.warning("job %s failed: %s", job.job_id, exc)
                outcome = JobOutcome(
                    job_id=job.job_id, status="failed",
                    queue_wait_s=wait_s,
                    service_s=self._clock() - started,
                    degradation_level=level,
                    error=f"{type(exc).__name__}: {exc}",
                )
            except Exception as exc:  # crash guard: worker must survive
                crashed = True
                self.singleflight.forget(job.cache_key)
                self.obs.count(
                    "serve_jobs_failed_total",
                    help="jobs that exhausted retries or hit hard errors",
                )
                logger.exception(
                    "worker %d crashed executing job %s", idx, job.job_id
                )
                outcome = JobOutcome(
                    job_id=job.job_id, status="failed",
                    queue_wait_s=wait_s,
                    service_s=self._clock() - started,
                    degradation_level=level,
                    error=f"crash: {type(exc).__name__}: {exc}",
                )
            finally:
                self._running.pop(job.job_id, None)
            self._resolve(queued, outcome)
            if crashed:
                # the wide event is already in the ring (via _resolve),
                # so the dump carries the crashing job's full record.
                self._pending_flight_dump = None
                self.dump_flight("worker_crash")

    def _execute_job(self, job: JobSpec, config: SBPConfig,
                     token: CancelToken, tracer: Tracer):
        """Thread-pool body: run the partitioner with job-level retries."""
        device = Device(A4000)
        job_obs = Observability(enabled=self.obs.config.enabled)
        job_obs.metrics = self.obs.metrics  # aggregate counters, own tracer
        job_obs.tracer = tracer  # the job's end-to-end trace
        attempts = {"last": 0}

        def operation(attempt: int) -> PartitionResult:
            attempts["last"] = attempt
            if self._fault_plan_factory is not None:
                plan = self._fault_plan_factory(job, attempt)
                if plan is not None:
                    install_fault_injector(device, plan)
                else:
                    device.fault_injector = None
            partitioner = GSAPPartitioner(
                config, device=device, observability=job_obs
            )
            with tracer.span("attempt", "serve", attempt=attempt):
                return partitioner.partition(job.graph, cancel=token)

        policy = RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            retry_on=(DeviceError, RetryExhaustedError),
        )
        budget = (
            FaultBudget(self.config.fault_budget)
            if self.config.fault_budget is not None else None
        )
        result = with_retries(
            operation, policy,
            seed=config.seed,
            label=f"serve:{job.job_id}",
            budget=budget,
            sleep=self._sleep,
            logger=logger,
            obs=job_obs,
        )
        return result, attempts["last"]

    # -- outcome classification ----------------------------------------
    def _classify_result(self, job, result, retries, wait_s, started,
                         level) -> JobOutcome:
        service_s = self._clock() - started
        self.obs.observe(
            "serve_service_seconds", service_s,
            help="execution time per job (retries included)",
        )
        if retries:
            self.obs.count(
                "serve_job_retries_total", amount=retries,
                help="job-level partition re-runs after transient faults",
            )
        if result.cancelled is None:
            status = "completed"
            self.obs.count(
                "serve_jobs_completed_total", help="jobs finished normally"
            )
            # only pristine full-fidelity results are shareable
            if level == 0 and self.config.cache_capacity > 0:
                self.cache.put(job.cache_key, result)
                self.singleflight.resolve(job.cache_key, result)
            else:
                self.singleflight.forget(job.cache_key)
        elif result.cancelled == "deadline":
            status = "timed_out"
            self.obs.count(
                "serve_jobs_timed_out_total",
                help="jobs stopped by their deadline",
            )
            self.singleflight.forget(job.cache_key)
        else:
            # shutdown / explicit cancel with a best-effort result; a
            # written checkpoint upgrades the status.
            status = (
                "checkpointed"
                if self._has_checkpoint(job.job_id) else "cancelled"
            )
            self.obs.count(
                "serve_jobs_checkpointed_total"
                if status == "checkpointed" else "serve_jobs_cancelled_total",
                help="jobs persisted at shutdown"
                if status == "checkpointed" else "jobs cancelled mid-run",
            )
            self.singleflight.forget(job.cache_key)
        return JobOutcome(
            job_id=job.job_id, status=status, result=result,
            queue_wait_s=wait_s, service_s=service_s, retries=retries,
            degradation_level=level,
            checkpoint_dir=(
                str(self._job_dir(job.job_id))
                if status in ("checkpointed", "timed_out")
                and self._has_checkpoint(job.job_id) else None
            ),
        )

    def _classify_cancel(self, job, exc: RunCancelled, wait_s, started,
                         level) -> JobOutcome:
        """Cancellation before any plateau finished (no best partition)."""
        self.singleflight.forget(job.cache_key)
        service_s = self._clock() - started
        if exc.reason == "deadline":
            status = "timed_out"
            self.obs.count(
                "serve_jobs_timed_out_total",
                help="jobs stopped by their deadline",
            )
        elif self._has_checkpoint(job.job_id):
            status = "checkpointed"
            self.obs.count(
                "serve_jobs_checkpointed_total",
                help="jobs persisted at shutdown",
            )
        else:
            status = "cancelled"
            self.obs.count(
                "serve_jobs_cancelled_total", help="jobs cancelled mid-run"
            )
        return JobOutcome(
            job_id=job.job_id, status=status,
            queue_wait_s=wait_s, service_s=service_s,
            degradation_level=level,
            checkpoint_dir=(
                str(self._job_dir(job.job_id))
                if status == "checkpointed" else None
            ),
            error=str(exc),
        )

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    async def shutdown(self, mode: str = "drain") -> dict:
        """Stop the server; every accepted job resolves before return.

        ``drain`` finishes all accepted jobs at full fidelity.
        ``checkpoint`` stops fast but safe: running jobs are cancelled
        (persisting resumable checkpoints past the progress threshold)
        and never-started jobs are parked on disk.

        Returns a summary dict (outcome counts, leftovers) and is
        idempotent.
        """
        if mode not in ("drain", "checkpoint"):
            raise ValueError(f"unknown shutdown mode {mode!r}")
        if self.config.workers == 0 and mode == "drain":
            # nothing could ever drain a worker-less server
            mode = "checkpoint"
        self._shutting_down = True
        self._shutdown_mode = mode
        if mode == "checkpoint":
            for queued in list(self._running.values()):
                queued.token.cancel(REASON_SHUTDOWN)
            # drain never-started jobs directly off the queue
            while True:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not _SENTINEL and not item.future.done():
                    self._park_or_cancel(item)
        # wait for every accepted job to reach a terminal outcome; late
        # arrivals (e.g. coalesced followers re-queued mid-shutdown)
        # extend self._accepted, so loop until quiescent.
        while True:
            pending = [f for f in self._accepted if not f.done()]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        for _ in self._workers:
            self._queue.put_nowait(_SENTINEL)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
            self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pending_flight_dump is not None:
            # escalation armed a dump but no job terminated after it;
            # don't lose the evidence across shutdown.
            reason = self._pending_flight_dump
            self._pending_flight_dump = None
            self.dump_flight(reason)
        logger.info("server shut down (%s): %s", mode,
                    self.outcomes_by_status)
        return {
            "mode": mode,
            "outcomes": dict(self.outcomes_by_status),
            "unresolved": sum(1 for f in self._accepted if not f.done()),
        }

    def _park_or_cancel(self, queued: _Queued) -> None:
        """Resolve a never-started job at shutdown without losing it."""
        job = queued.job
        if self.config.checkpoint_root is not None:
            directory = park_job(job, self._job_dir(job.job_id))
            self.obs.count(
                "serve_jobs_parked_total",
                help="accepted jobs persisted un-started at shutdown",
            )
            outcome = JobOutcome(
                job_id=job.job_id, status="parked",
                checkpoint_dir=str(directory),
            )
        else:
            self.obs.count(
                "serve_jobs_cancelled_total", help="jobs cancelled mid-run"
            )
            outcome = JobOutcome(
                job_id=job.job_id, status="cancelled",
                error="server shut down before the job started",
            )
        self.singleflight.forget(job.cache_key)
        self._resolve(queued, outcome)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _resolve(self, queued: _Queued, outcome: JobOutcome) -> None:
        self._complete_job(
            queued.job, outcome, queued.tracer, sf_role=queued.sf_role
        )
        self._finish(outcome, queued.job.work_bytes)
        if not queued.future.done():
            queued.future.set_result(outcome)
        self._observe_pressure()

    def _finish(self, outcome: JobOutcome, work_bytes: int) -> None:
        """Common bookkeeping for every terminal outcome of an accepted job."""
        self.outcomes_by_status[outcome.status] = (
            self.outcomes_by_status.get(outcome.status, 0) + 1
        )
        self.admission.release(
            work_bytes,
            outcome.service_s if outcome.service_s > 0 else None,
        )
        self.obs.gauge_set(
            "serve_queue_depth", float(self.admission.depth),
            help="accepted jobs queued or running",
        )
        self.obs.gauge_set(
            "serve_inflight_bytes", float(self.admission.inflight_bytes),
            help="graph work-bytes pinned by accepted jobs",
        )

    def _job_dir(self, job_id: str) -> Optional[Path]:
        if self.config.checkpoint_root is None:
            return None
        return Path(self.config.checkpoint_root) / job_id

    def _has_checkpoint(self, job_id: str) -> bool:
        directory = self._job_dir(job_id)
        return directory is not None and (directory / "run.json").exists()

    def _observe_pressure(self) -> None:
        """Feed the overload detector; move the ladder when it says so."""
        sample = self.admission.depth / max(1, self.config.max_queue_depth)
        prior = self.ladder.level
        level = self.detector.observe(sample)
        if self.ladder.set_level(level):
            self._on_degradation_transition(prior)
        self.admission.set_shed_factor(self.ladder.admission_shed_factor())
        self.obs.gauge_set(
            "serve_degradation_level", float(self.ladder.level),
            help="current degradation-ladder level (0 = full fidelity)",
        )

    def _on_degradation_transition(self, prior: int) -> None:
        """Account a ladder move; escalations arm a flight-recorder dump.

        The dump itself is deferred to the next terminal job
        (:meth:`_complete_job`), so it always carries the wide event of
        the job in flight when the ladder escalated.
        """
        self.obs.count(
            "serve_degradation_transitions_total",
            help="degradation-ladder level changes",
        )
        self.obs.instant(
            "degradation", "serve",
            level=self.ladder.level, level_name=self.ladder.level_name,
            pressure=round(self.detector.pressure(), 4),
        )
        self.flight.append("degradation_transition", {
            "from_level": prior,
            "to_level": self.ladder.level,
            "name": self.ladder.level_name,
            "pressure": round(self.detector.pressure(), 4),
        })
        logger.warning(
            "degradation level -> %d (%s), pressure %.2f",
            self.ladder.level, self.ladder.level_name,
            self.detector.pressure(),
        )
        if self.ladder.level > prior:
            self._pending_flight_dump = "degradation_escalation"

    def force_degradation(self, level: Optional[int]) -> None:
        """Pin the degradation ladder (tests/operators); ``None`` releases."""
        prior = self.ladder.level
        self.ladder.force(level)
        if self.ladder.level != prior:
            self._on_degradation_transition(prior)
        self.admission.set_shed_factor(self.ladder.admission_shed_factor())

    # ------------------------------------------------------------------
    # flight deck: wide events, SLO accounting, recorder dumps
    # ------------------------------------------------------------------
    def _complete_job(
        self,
        job: JobSpec,
        outcome: JobOutcome,
        tracer: Tracer,
        sf_role: Optional[str] = None,
    ) -> None:
        """Terminal-job bookkeeping shared by every outcome path.

        Closes the job's span tree, stamps the trace identity on every
        span, emits the wide event (flight recorder + canonical log
        line), feeds the SLO engine, writes the per-job Chrome trace,
        and performs any armed flight-recorder dump.
        """
        outcome.trace_id = job.trace_id
        tracer.close_open_spans()
        if tracer.enabled:
            for span in tracer.spans():
                span.args.setdefault("trace_id", job.trace_id)
                span.args.setdefault("job_id", job.job_id)
                if job.tenant is not None:
                    span.args.setdefault("tenant", job.tenant)
        wide = self._wide_event(job, outcome, tracer, sf_role)
        if tracer.enabled:
            for span in tracer.spans():
                # keep the ring signal-dense: serve decisions and the
                # partitioner's coarse structure, not per-kernel leaves
                if span.category in ("serve", "run", "plateau", "phase"):
                    self.flight.append_span(span.to_dict())
        self.flight.append_wide_event(wide)
        self._record_slo(wide)
        logger.info(
            "wide_event %s", json.dumps(wide, sort_keys=True, default=str)
        )
        if self.config.trace_dir is not None and tracer.enabled:
            path = Path(self.config.trace_dir) / f"{job.job_id}.trace.json"
            write_chrome_trace(tracer, path, metadata={
                "trace_id": job.trace_id,
                "job_id": job.job_id,
                "tenant": job.tenant,
            })
            outcome.trace_path = str(path)
        if self._pending_flight_dump is not None:
            reason = self._pending_flight_dump
            self._pending_flight_dump = None
            self.dump_flight(reason)

    def _wide_event(
        self,
        job: JobSpec,
        outcome: JobOutcome,
        tracer: Tracer,
        sf_role: Optional[str],
    ) -> dict:
        """The job's canonical log line: every decision, one record."""
        phase_s: Dict[str, float] = {}
        for span in tracer.spans():
            if span.category == "phase" and span.duration_s:
                phase_s[span.name] = (
                    phase_s.get(span.name, 0.0) + span.duration_s
                )
        result = None
        if outcome.result is not None:
            result = {
                "num_blocks": int(outcome.result.num_blocks),
                "mdl": float(outcome.result.mdl),
                "converged": bool(outcome.result.converged),
                "cancelled": outcome.result.cancelled,
            }
        return {
            "schema": WIDE_EVENT_SCHEMA,
            "job_id": job.job_id,
            "trace_id": job.trace_id,
            "tenant": job.tenant,
            "status": outcome.status,
            "size_class": size_class_of(job.num_vertices),
            "num_vertices": int(job.num_vertices),
            "work_bytes": int(job.work_bytes),
            "admission": {
                "verdict": (
                    "rejected" if outcome.status == "rejected"
                    else "accepted"
                ),
                "reason": outcome.reject_reason,
                "retry_after_s": outcome.retry_after_s,
            },
            "degradation": {
                "level": outcome.degradation_level,
                "name": LEVEL_NAMES[outcome.degradation_level],
            },
            "cache": {
                "hit": outcome.cache_hit,
                "coalesced": outcome.coalesced,
                "singleflight_role": sf_role,
            },
            "retries": outcome.retries,
            "deadline": {
                "deadline_s": job.deadline_s,
                "timed_out": outcome.status == "timed_out",
            },
            "queue_wait_s": outcome.queue_wait_s,
            "service_s": outcome.service_s,
            "phase_s": phase_s,
            "checkpoint_dir": outcome.checkpoint_dir,
            "result": result,
            "error": outcome.error,
        }

    def _record_slo(self, wide: dict) -> None:
        """Feed the SLO engine and republish its gauges per size class.

        ``parked``/``checkpointed`` outcomes are operator-induced (a
        deliberate shutdown), not service failures, and are excluded.
        """
        status = wide["status"]
        if status in ("parked", "checkpointed"):
            return
        cls = wide["size_class"]
        latency = wide["queue_wait_s"] + wide["service_s"]
        good = self.slo.record(cls, latency, ok=status == "completed")
        if good is None:
            return
        self.obs.count(
            f"serve_slo_{'good' if good else 'bad'}_total_{cls}",
            help=f"SLO-{'good' if good else 'bad'} terminal jobs "
                 f"(size class {cls})",
        )
        self.obs.gauge_set(
            f"serve_slo_error_budget_remaining_{cls}",
            self.slo.error_budget_remaining(cls),
            help=f"error budget left in the SLO window (size class {cls})",
        )
        for window_name, window_s in BURN_WINDOWS.items():
            self.obs.gauge_set(
                f"serve_slo_burn_rate_{window_name}_{cls}",
                self.slo.burn_rate(cls, window_s),
                help=f"error-budget burn rate over {window_name} "
                     f"(size class {cls})",
            )

    def dump_flight(self, reason: str,
                    path: Optional[Path] = None) -> Optional[Path]:
        """Dump the flight recorder; returns the file (``None`` when no
        destination is configured and none was given)."""
        if path is None:
            if self.config.flight_dir is None:
                logger.warning(
                    "flight-recorder dump (%s) skipped: no flight_dir",
                    reason,
                )
                return None
            path = (
                Path(self.config.flight_dir)
                / f"flight-{next(self._dump_ids):03d}-{reason}.jsonl"
            )
        dumped = self.flight.dump(path, reason)
        self.obs.count(
            "serve_flight_dumps_total",
            help="flight-recorder dumps written",
        )
        logger.warning("flight recorder dumped (%s) -> %s", reason, dumped)
        return dumped

    def status(self) -> dict:
        """Live ops snapshot: stats + SLO + flight recorder + recents.

        This is what the TCP ``status`` verb and ``gsap top`` render.
        """
        return {
            "uptime_s": self._clock() - self._started_at,
            "stats": self.stats(),
            "slo": self.slo.snapshot(),
            "flight_recorder": self.flight.stats(),
            "recent_jobs": [
                entry["event"]
                for entry in self.flight.recent(8, kind="wide_event")
            ],
        }

    def metrics_text(self) -> str:
        """Live Prometheus text exposition of the shared registry."""
        return prometheus_text(
            self.obs.metrics, labels={"service": "gsap-serve"}
        )

    def stats(self) -> dict:
        """Operational snapshot (also served by the TCP front end)."""
        return {
            "admission": self.admission.stats(),
            "cache": self.cache.stats(),
            "singleflight_inflight": len(self.singleflight),
            "singleflight_coalesced_total": self.singleflight.coalesced_total,
            "degradation_level": self.ladder.level,
            "degradation_name": self.ladder.level_name,
            "outcomes": dict(self.outcomes_by_status),
            "running": sorted(self._running),
            "shutting_down": self._shutting_down,
        }
