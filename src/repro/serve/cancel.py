"""Cooperative cancellation: deadline tokens threaded through a run.

A :class:`CancelToken` is handed to
:meth:`repro.core.partitioner.GSAPPartitioner.partition` and polled at
the partitioner's cooperative check sites (the top of every
golden-section plateau and every MCMC sweep).  When the token is
cancelled — explicitly, or because its deadline passed — the next check
raises :class:`~repro.errors.RunCancelled`; the partitioner unwinds
cleanly, releases its device context, persists a resumable checkpoint
when the run completed at least one plateau (``checkpoint_dir``), and
returns the best partition found so
far with :attr:`~repro.core.result.PartitionResult.cancelled` set.

Tokens are safe to cancel from another thread (the job server cancels
worker-thread runs from its event loop): state is a pair of write-once
attributes guarded by a lock, and ``check`` takes the fast path — two
attribute reads — when nothing fired.

The clock is injectable so deadline tests run on a fake clock with zero
real sleeping.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional, Union

from ..errors import RunCancelled

PathLike = Union[str, os.PathLike]

#: Cancellation reasons with defined semantics across the library.
REASON_DEADLINE = "deadline"
REASON_SHUTDOWN = "shutdown"
REASON_CANCELLED = "cancelled"


class CancelToken:
    """A cancellation flag with an optional deadline.

    Parameters
    ----------
    deadline_s:
        Relative deadline in seconds from token creation; ``None``
        disables the deadline (the token only fires when
        :meth:`cancel` is called).
    clock:
        Monotonic clock used for the deadline; injectable for tests.
    checkpoint_dir:
        Where the partitioner should persist a resumable run checkpoint
        if this token fires mid-run (``None`` skips persistence unless
        the run has its own checkpoint directory).  A cancelled run only
        writes it once at least one plateau completed: a run cancelled
        before any real progress has nothing worth saving.
    """

    def __init__(
        self,
        deadline_s: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        checkpoint_dir: Optional[PathLike] = None,
    ) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
        self._clock = clock
        self._lock = threading.Lock()
        self._cancelled = False
        self._reason: Optional[str] = None
        self._deadline: Optional[float] = (
            clock() + deadline_s if deadline_s is not None else None
        )
        self.checkpoint_dir = checkpoint_dir

    # ------------------------------------------------------------------
    def cancel(self, reason: str = REASON_CANCELLED) -> None:
        """Fire the token; the first reason wins, later calls are no-ops."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._reason = reason

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called or the deadline passed."""
        if self._cancelled:
            return True
        if self._deadline is not None and self._clock() >= self._deadline:
            self.cancel(REASON_DEADLINE)
            return True
        return False

    @property
    def reason(self) -> Optional[str]:
        """Why the token fired (``None`` while still live)."""
        self.cancelled  # promote an expired deadline into a reason
        return self._reason

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (``None`` without one, floor 0)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def check(self, where: str = "") -> None:
        """Raise :class:`RunCancelled` when the token has fired.

        Called at cooperative check sites; *where* names the site for
        diagnostics (``"plateau"``, ``"sweep"``).
        """
        if self.cancelled:
            reason = self._reason or REASON_CANCELLED
            raise RunCancelled(
                f"run cancelled ({reason})"
                + (f" at {where} boundary" if where else ""),
                reason=reason,
                where=where,
            )
