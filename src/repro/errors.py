"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An input graph file or edge list is malformed."""


class GraphValidationError(ReproError):
    """A graph object violates a structural invariant (bad CSR, ids, ...)."""


class PartitionError(ReproError):
    """A partitioner reached an invalid internal state."""


class ConvergenceError(PartitionError):
    """A partitioner failed to converge within its iteration budget."""


class DeviceError(ReproError):
    """The simulated GPU device was used incorrectly."""


class DeviceMemoryError(DeviceError):
    """The simulated device ran out of memory (raised by injected ``oom`` faults)."""


class KernelLaunchError(DeviceError):
    """A simulated kernel was launched with an invalid configuration."""


class DatasetError(ReproError):
    """A named dataset cannot be found or synthesized."""


class ConfigError(ReproError):
    """Invalid partitioning-parameter configuration."""


class FaultInjected(ReproError):
    """Marker mixin for errors raised by the deterministic fault injector.

    Concrete injected faults multiply-inherit from this class *and* the
    device error they imitate (e.g. ``DeviceMemoryError``), so production
    retry paths treat them exactly like real faults while tests can still
    distinguish injected ones.
    """


class RunCancelled(ReproError):
    """A run was cooperatively cancelled (deadline, shutdown, or caller).

    Raised by :meth:`repro.serve.CancelToken.check` at the partitioner's
    cooperative checkpoints.  The partitioner converts it into a
    best-effort :class:`~repro.core.result.PartitionResult` (with
    :attr:`~repro.core.result.PartitionResult.cancelled` set) whenever at
    least one plateau finished; before any progress it propagates to the
    caller.

    Attributes
    ----------
    reason:
        Why the run stopped: ``"deadline"``, ``"shutdown"``, or
        ``"cancelled"`` (explicit caller cancellation).
    where:
        The cooperative check site that observed the cancellation
        (``"plateau"``, ``"sweep"``, ...).
    """

    def __init__(self, message: str, reason: str = "cancelled",
                 where: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.where = where


class AdmissionRejected(ReproError):
    """The job server refused a submission (backpressure).

    Attributes
    ----------
    retry_after_s:
        Suggested client backoff before resubmitting, derived from the
        current queue depth and the server's observed service rate.
    reason:
        Which limit rejected the job (``"queue_depth"``,
        ``"inflight_bytes"``, ``"shutting_down"``, ``"shed_load"``).
    """

    def __init__(self, message: str, reason: str = "queue_depth",
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class RetryExhaustedError(ReproError):
    """A retried operation kept failing past its attempt/fault budget.

    Attributes
    ----------
    last_error:
        The exception raised by the final attempt (``None`` when the
        run's fault budget was exhausted before another attempt ran).
    attempts:
        Number of attempts made before giving up.
    """

    def __init__(self, message: str, last_error: Exception | None = None,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class CommError(ReproError):
    """A failure of the simulated message-passing fabric.

    Retry sites in :mod:`repro.dist` treat these as transient: a lost or
    corrupt frame triggers a bounded retransmit before escalating to the
    failure detector.
    """


class FrameCorruptError(CommError):
    """A received frame failed its CRC32 check (corrupted on the wire)."""


class FrameLossError(CommError):
    """An expected frame never arrived (dropped on the wire)."""


class CheckpointError(ReproError):
    """A checkpoint is missing, truncated, or has an unsupported format."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file's content digest does not match its manifest.

    Raised instead of deserializing garbage when a ``partition.npy`` /
    ``state-*.npz`` payload was modified (bit rot, torn write, tampering)
    after the manifest recorded its digest.  The message names the file.
    """

    def __init__(self, message: str, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class NumericalError(ReproError):
    """A numerical kernel produced a non-finite or impossible value.

    Raised at the first non-finite intermediate (NaN/Inf entropy terms,
    negative edge counts) so corruption surfaces as a typed error instead
    of a NaN silently propagating into Metropolis-Hastings acceptance.
    """


class IntegrityError(ReproError):
    """Blockmodel state failed an integrity audit.

    Raised when the invariant auditor detects silent corruption and
    repair is disabled (or the repair ladder is exhausted).  Carries the
    list of violated invariants as :attr:`violations` (strings).
    """

    def __init__(self, message: str, violations: "list | None" = None) -> None:
        super().__init__(message)
        self.violations = list(violations or [])
