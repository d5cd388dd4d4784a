"""Admission control: bounded queues, byte caps, explicit backpressure.

The server never lets work pile up unboundedly.  Every submission
passes through :class:`AdmissionController`, which tracks two resources:

* **queue depth** — accepted jobs not yet finished; and
* **in-flight work bytes** — the sum of :func:`~repro.serve.job.graph_work_bytes`
  over those jobs, a proxy for pinned device memory.

When either resource is saturated the submission is *rejected with
explicit backpressure*: the caller receives a ``retry_after_s`` hint
derived from an exponentially-weighted moving average of recent service
times, so well-behaved clients naturally spread their retries instead
of hammering a saturated server.

The degradation ladder's last rung plugs in through ``shed_factor``:
setting it below 1.0 shrinks the effective queue capacity, shedding a
fraction of incoming load while the server recovers.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import AdmissionRejected

#: retry hint when no service-time samples exist yet
_DEFAULT_RETRY_AFTER_S = 1.0
#: floor so rejected clients never busy-spin
_MIN_RETRY_AFTER_S = 0.05
#: smoothing factor of the service-time average behind ``retry_after_s``
_EWMA_ALPHA = 0.3


class AdmissionController:
    """Decide, under a lock, whether a submission may enter the system.

    Parameters
    ----------
    max_queue_depth:
        Maximum accepted-but-unfinished jobs (queued + running).
    max_inflight_bytes:
        Cap on summed graph work-bytes across accepted jobs; ``None``
        disables the byte gate.

    Thread-safe: admission happens on the event loop, release on worker
    threads.
    """

    def __init__(
        self,
        max_queue_depth: int = 16,
        max_inflight_bytes: Optional[int] = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth!r}"
            )
        if max_inflight_bytes is not None and max_inflight_bytes < 1:
            raise ValueError(
                f"max_inflight_bytes must be >= 1, got {max_inflight_bytes!r}"
            )
        self.max_queue_depth = max_queue_depth
        self.max_inflight_bytes = max_inflight_bytes
        self._lock = threading.Lock()
        self._depth = 0
        self._inflight_bytes = 0
        self._service_ewma_s: Optional[float] = None
        self._shed_factor = 1.0
        # counters (read under lock via stats())
        self.accepted_total = 0
        self.rejected_total = 0
        self.rejected_by_reason: dict = {}

    # -- load shedding -------------------------------------------------
    def set_shed_factor(self, factor: float) -> None:
        """Scale effective queue capacity to ``factor`` (0 < f <= 1)."""
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"shed factor must lie in (0, 1], got {factor!r}")
        with self._lock:
            self._shed_factor = factor

    @property
    def shed_factor(self) -> float:
        with self._lock:
            return self._shed_factor

    # -- admission -----------------------------------------------------
    def try_admit(self, work_bytes: int, shutting_down: bool = False) -> None:
        """Admit a job of *work_bytes*, or raise :class:`AdmissionRejected`.

        On success the job's resources are reserved immediately; the
        caller must pair every successful admit with exactly one
        :meth:`release`.
        """
        with self._lock:
            if shutting_down:
                self._reject("shutting_down")
            effective_depth = max(
                1, int(self.max_queue_depth * self._shed_factor)
            )
            shedding = self._shed_factor < 1.0
            if self._depth >= effective_depth:
                self._reject("shed_load" if shedding else "queue_depth")
            if (
                self.max_inflight_bytes is not None
                and self._depth > 0
                and self._inflight_bytes + work_bytes > self.max_inflight_bytes
            ):
                # an oversized job admitted into an empty system still
                # runs (no starvation of big graphs); otherwise the
                # byte cap holds.
                self._reject("inflight_bytes")
            self._depth += 1
            self._inflight_bytes += work_bytes
            self.accepted_total += 1

    def release(self, work_bytes: int, service_s: Optional[float] = None) -> None:
        """Return a finished/failed job's reservation to the pool."""
        with self._lock:
            self._depth = max(0, self._depth - 1)
            self._inflight_bytes = max(0, self._inflight_bytes - work_bytes)
            if service_s is not None and service_s >= 0.0:
                if self._service_ewma_s is None:
                    self._service_ewma_s = service_s
                else:
                    self._service_ewma_s = (
                        _EWMA_ALPHA * service_s
                        + (1.0 - _EWMA_ALPHA) * self._service_ewma_s
                    )

    def _reject(self, reason: str) -> None:
        """Raise AdmissionRejected with a retry hint.  Lock held."""
        self.rejected_total += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )
        retry_after = self._retry_after_locked()
        raise AdmissionRejected(
            f"admission refused ({reason}): depth={self._depth}/"
            f"{self.max_queue_depth} inflight_bytes={self._inflight_bytes}"
            f" shed_factor={self._shed_factor:g}",
            reason=reason,
            retry_after_s=retry_after,
        )

    def _retry_after_locked(self) -> float:
        if self._service_ewma_s is None:
            return _DEFAULT_RETRY_AFTER_S
        # expected time until a slot frees: one mean service time,
        # scaled by how far over capacity we are.
        over = max(1.0, self._depth / max(1, self.max_queue_depth))
        return max(_MIN_RETRY_AFTER_S, self._service_ewma_s * over)

    # -- introspection -------------------------------------------------
    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def inflight_bytes(self) -> int:
        with self._lock:
            return self._inflight_bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": self._depth,
                "inflight_bytes": self._inflight_bytes,
                "max_queue_depth": self.max_queue_depth,
                "max_inflight_bytes": self.max_inflight_bytes,
                "shed_factor": self._shed_factor,
                "service_ewma_s": self._service_ewma_s,
                "accepted_total": self.accepted_total,
                "rejected_total": self.rejected_total,
                "rejected_by_reason": dict(self.rejected_by_reason),
            }
