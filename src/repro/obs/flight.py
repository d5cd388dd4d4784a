"""Flight recorder: a bounded in-memory ring of recent serve events.

Post-incident analysis should not depend on having had tracing enabled
and files flushed before the crash.  The :class:`FlightRecorder` keeps
the last *capacity* spans / wide events / transitions in a ring buffer
(oldest evicted first) and can dump the whole ring to disk as JSONL —
atomically, via temp + rename — when something goes wrong: a worker
crash, a degradation-ladder escalation, or an operator's explicit
``dump`` verb.

Each entry is an envelope ``{"kind", "ts_s", "seq", ...payload}`` so a
dump replays as a self-describing event stream; the dump file opens
with one header record naming the dump reason and ring statistics.

Appends are lock-guarded (serve workers and the event loop both write)
and O(1); a dump snapshots the ring under the lock and serialises
outside it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

from ..atomicio import atomic_write_text
from .export import PathLike

__all__ = ["FlightRecorder", "FLIGHT_RECORDER_SCHEMA"]

FLIGHT_RECORDER_SCHEMA = "gsap-flight-recorder/1"


class FlightRecorder:
    """Bounded ring buffer of recent observability events.

    Parameters
    ----------
    capacity:
        Maximum retained events; older entries are evicted FIFO.
    clock:
        Monotonic seconds used to stamp entries; injectable for tests.
    """

    def __init__(
        self,
        capacity: int = 2048,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._clock = clock
        self._ring: Deque[dict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._appended = 0
        self._dumps = 0
        self._last_dump_reason: Optional[str] = None
        self._last_dump_path: Optional[str] = None

    # ------------------------------------------------------------------
    def append(self, kind: str, payload: dict) -> None:
        """Record one event envelope; O(1), evicts the oldest at cap."""
        with self._lock:
            self._seq += 1
            self._appended += 1
            self._ring.append(
                {"kind": kind, "ts_s": self._clock(), "seq": self._seq,
                 **payload}
            )

    def append_span(self, span_dict: dict) -> None:
        """Record a closed span (as produced by ``Span.to_dict``)."""
        self.append("span", {"span": span_dict})

    def append_wide_event(self, event: dict) -> None:
        """Record a job's terminal wide event (canonical log line)."""
        self.append("wide_event", {"event": event})

    # ------------------------------------------------------------------
    def recent(self, n: Optional[int] = None,
               kind: Optional[str] = None) -> List[dict]:
        """Newest-last copy of the ring, optionally filtered by kind."""
        with self._lock:
            entries = list(self._ring)
        if kind is not None:
            entries = [e for e in entries if e["kind"] == kind]
        if n is not None:
            entries = entries[-n:]
        return entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "buffered": len(self._ring),
                "appended_total": self._appended,
                "evicted_total": self._appended - len(self._ring),
                "dumps_total": self._dumps,
                "last_dump_reason": self._last_dump_reason,
                "last_dump_path": self._last_dump_path,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # ------------------------------------------------------------------
    def dump(self, path: PathLike, reason: str) -> Path:
        """Write the ring to *path* as JSONL, atomically.

        The first line is a header record
        (``kind == "flight_recorder_dump"``) carrying the reason and
        ring statistics; every following line is one buffered event,
        oldest first.
        """
        path = Path(path)
        with self._lock:
            entries = list(self._ring)
            self._dumps += 1
            self._last_dump_reason = reason
            self._last_dump_path = str(path)
            header = {
                "kind": "flight_recorder_dump",
                "schema": FLIGHT_RECORDER_SCHEMA,
                "reason": reason,
                "ts_s": self._clock(),
                "events": len(entries),
                "appended_total": self._appended,
                "capacity": self.capacity,
            }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(e, sort_keys=True, default=str)
                     for e in entries)
        atomic_write_text(path, "\n".join(lines) + "\n")
        return path
