"""Retry policies with exponential backoff + jitter, and run-level stats.

:func:`with_retries` re-executes an operation that failed with a
*retryable* error (device faults by default).  Attempts are counted, the
sleep between attempts grows exponentially with seeded jitter, and a
shared :class:`FaultBudget` can cap the total number of faults a whole
run is allowed to absorb, so a fault storm fails fast instead of
retrying forever.

Determinism note: the operation callback receives the attempt number and
must rebuild any consumed state (notably RNG generators) itself — a
NumPy ``Generator`` partially consumed by a faulted attempt must *not*
be reused, or retried runs diverge from fault-free ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from ..errors import DeviceError, RetryExhaustedError
from ..rng import make_rng

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a fault-prone operation.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included); must be >= 1.
    base_delay_s:
        Backoff before the first retry; attempt ``k`` waits
        ``base_delay_s * backoff_factor**(k-1)`` (capped at
        ``max_delay_s``) scaled by ``1 ± jitter``.
    jitter:
        Relative jitter in ``[0, 1)`` drawn from a seeded stream, so even
        the sleep sequence is reproducible.
    retry_on:
        Exception classes considered transient.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.0
    backoff_factor: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.1
    retry_on: Tuple[type, ...] = (DeviceError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError(f"jitter must lie in [0, 1), got {self.jitter}")

    @classmethod
    def from_config(
        cls, rcfg, retry_on: Tuple[type, ...] = (DeviceError,)
    ) -> "RetryPolicy":
        """The schedule a :class:`~repro.config.ResilienceConfig`
        describes, retrying the errors in *retry_on*."""
        return cls(
            max_attempts=rcfg.max_attempts,
            base_delay_s=rcfg.base_delay_s,
            backoff_factor=rcfg.backoff_factor,
            max_delay_s=rcfg.max_delay_s,
            jitter=rcfg.jitter,
            retry_on=retry_on,
        )

    def delay_for_attempt(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff (seconds) after failed attempt *attempt* (1-based)."""
        delay = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class FaultBudget:
    """A run-wide cap on absorbed faults, shared across retry sites."""

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError(f"fault budget must be >= 0, got {limit}")
        self.limit = limit
        self.consumed = 0

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.consumed)

    def consume(self, error: Exception) -> None:
        """Account one absorbed fault; raise when the budget is blown."""
        self.consumed += 1
        if self.consumed > self.limit:
            raise RetryExhaustedError(
                f"run fault budget of {self.limit} exhausted "
                f"(last fault: {error})",
                last_error=error,
                attempts=self.consumed,
            )


@dataclass
class ResilienceStats:
    """What the resilience machinery did during one run.

    Surfaced on :class:`~repro.core.result.PartitionResult` so callers
    (and the CLI) can see how bumpy the ride was.
    """

    faults_absorbed: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    degradations: List[str] = field(default_factory=list)
    checkpoints_written: int = 0
    resumed_from: Optional[str] = None
    backoff_s: float = 0.0

    def record_fault(self, error: Exception) -> None:
        self.faults_absorbed += 1
        kind = type(error).__name__
        self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1

    def record_degradation(self, description: str) -> None:
        self.degradations.append(description)

    def to_dict(self) -> dict:
        return {
            "faults_absorbed": self.faults_absorbed,
            "faults_by_kind": dict(self.faults_by_kind),
            "retries": self.retries,
            "degradations": list(self.degradations),
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
            "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceStats":
        return cls(
            faults_absorbed=int(payload.get("faults_absorbed", 0)),
            faults_by_kind=dict(payload.get("faults_by_kind", {})),
            retries=int(payload.get("retries", 0)),
            degradations=list(payload.get("degradations", [])),
            checkpoints_written=int(payload.get("checkpoints_written", 0)),
            resumed_from=payload.get("resumed_from"),
            backoff_s=float(payload.get("backoff_s", 0.0)),
        )


def with_retries(
    operation: Callable[[int], T],
    policy: RetryPolicy,
    *,
    seed: int = 0,
    label: str = "operation",
    stats: Optional[ResilienceStats] = None,
    budget: Optional[FaultBudget] = None,
    sleep: Callable[[float], None] = time.sleep,
    logger=None,
    obs=None,
) -> T:
    """Run ``operation(attempt)`` until it succeeds or the policy gives up.

    *operation* receives the 0-based attempt number so it can rebuild
    per-attempt state (fresh RNG generators, scratch buffers).  Raises
    :class:`RetryExhaustedError` carrying the final attempt's error when
    every attempt failed, and propagates immediately when the shared
    *budget* is exhausted.  Non-retryable exceptions propagate untouched.
    *obs* (an :class:`~repro.obs.Observability`, duck-typed to avoid an
    import cycle) gets fault/retry counters and instant trace markers.
    """
    jitter_rng = make_rng(seed, "retry_jitter", label)
    last_error: Optional[Exception] = None
    for attempt in range(policy.max_attempts):
        try:
            return operation(attempt)
        except policy.retry_on as exc:  # type: ignore[misc]
            last_error = exc
            if stats is not None:
                stats.record_fault(exc)
            if obs is not None:
                obs.count(
                    "resilience_faults_total",
                    help="device faults absorbed by retry sites",
                )
                obs.instant(
                    "fault", "resilience",
                    label=label, kind=type(exc).__name__, attempt=attempt,
                )
            if budget is not None:
                budget.consume(exc)  # may raise RetryExhaustedError
            if attempt + 1 >= policy.max_attempts:
                break
            if stats is not None:
                stats.retries += 1
            if obs is not None:
                obs.count(
                    "resilience_retries_total",
                    help="retries performed after absorbed faults",
                )
            delay = policy.delay_for_attempt(attempt + 1, jitter_rng)
            if logger is not None:
                logger.warning(
                    "%s failed (attempt %d/%d): %s; retrying in %.3fs",
                    label, attempt + 1, policy.max_attempts, exc, delay,
                )
            if delay > 0:
                if stats is not None:
                    stats.backoff_s += delay
                sleep(delay)
    raise RetryExhaustedError(
        f"{label} failed after {policy.max_attempts} attempts: {last_error}",
        last_error=last_error,
        attempts=policy.max_attempts,
    )
