"""Span-based tracing: nested timed regions of a partitioning run.

A :class:`Tracer` records :class:`Span` objects forming a tree —
run → plateau → phase → kernel — with wall-clock timestamps
relative to the tracer's epoch.  Spans are opened with the
context-manager API (:meth:`Tracer.span`) or, for pre-measured regions
such as the simulated device's kernel launches, appended whole with
:meth:`Tracer.add_complete`.

Disabled tracers are free: :meth:`Tracer.span` returns a shared no-op
context manager and every recording method returns before touching any
state, so production code can leave the calls inline unconditionally.

The span list serialises with :meth:`Tracer.to_state` /
:meth:`Tracer.load_state` so a checkpointed run resumes with its trace
intact: spans recorded before the kill keep their timestamps and spans
recorded after the resume continue on the same (monotonic) timeline.

Recording is thread-safe: the serve layer opens a job's spans on the
event loop and closes them from ``run_in_executor`` worker threads, so
every mutation of the span list and stack happens under one lock.
Disabled tracers still bypass the lock entirely.

:class:`TraceContext` is the cross-process identity of one request —
a ``trace_id`` minted at the client plus an optional parent span — that
rides the serve protocol so server-side spans stitch to the submission
that caused them.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    """One timed region of a run.

    Attributes
    ----------
    name / category:
        Display name and grouping label (``run`` / ``plateau`` /
        ``phase`` / ``sweep`` / ``kernel`` / ...).
    start_s:
        Seconds since the tracer epoch.
    duration_s:
        ``None`` while the span is still open.
    depth / index / parent:
        Position in the span tree; ``parent`` is the index of the
        enclosing span (``None`` at the root).
    kind:
        ``"span"`` for timed regions, ``"instant"`` for point events.
    args:
        Free-form metadata attached to the span.
    """

    name: str
    category: str
    start_s: float
    duration_s: Optional[float] = None
    depth: int = 0
    index: int = 0
    parent: Optional[int] = None
    kind: str = "span"
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_s(self) -> Optional[float]:
        if self.duration_s is None:
            return None
        return self.start_s + self.duration_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "index": self.index,
            "parent": self.parent,
            "kind": self.kind,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=str(payload["name"]),
            category=str(payload.get("category", "span")),
            start_s=float(payload["start_s"]),
            duration_s=(
                None if payload.get("duration_s") is None
                else float(payload["duration_s"])
            ),
            depth=int(payload.get("depth", 0)),
            index=int(payload.get("index", 0)),
            parent=payload.get("parent"),
            kind=str(payload.get("kind", "span")),
            args=dict(payload.get("args", {})),
        )


@dataclass(frozen=True)
class TraceContext:
    """Identity of one end-to-end request across process boundaries.

    ``trace_id`` is minted once, at the outermost client, and carried
    verbatim through every hop (wire protocol, queue, retries) so all
    spans of one logical request share it.  ``parent_span_id`` names
    the client-side span the server-side tree hangs under (free-form;
    ``None`` when the client did not open one).
    """

    trace_id: str
    parent_span_id: Optional[str] = None

    @classmethod
    def mint(cls, parent_span_id: Optional[str] = None) -> "TraceContext":
        """Create a fresh context with a random 32-hex-char trace id."""
        return cls(trace_id=uuid.uuid4().hex, parent_span_id=parent_span_id)

    def to_dict(self) -> dict:
        payload: dict = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            payload["parent_span_id"] = self.parent_span_id
        return payload

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> Optional["TraceContext"]:
        if not payload or not payload.get("trace_id"):
            return None
        parent = payload.get("parent_span_id")
        return cls(
            trace_id=str(payload["trace_id"]),
            parent_span_id=None if parent is None else str(parent),
        )


class _NullSpanContext:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Discard span metadata (disabled tracer)."""


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_index")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._index: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer.begin(
            self._name, self._category, **self._args
        )
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer.end(self._index)
        return False

    def set(self, **args: Any) -> None:
        """Attach metadata to the open span (e.g. a result computed late)."""
        if self._index is not None:
            self._tracer.spans()[self._index].args.update(args)


class Tracer:
    """Records a tree of nested spans on a monotonic wall clock.

    Parameters
    ----------
    enabled:
        When False every method is a no-op and :meth:`span` returns a
        shared null context manager (zero allocation per call).
    clock:
        Monotonic clock returning seconds; injectable for tests.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._enabled = bool(enabled)
        self._clock = clock
        self._epoch = clock() if self._enabled else 0.0
        #: offset added to the relative clock; advanced on state load so a
        #: resumed run's new spans land after the checkpointed ones.
        self._offset_s = 0.0
        self._spans: List[Span] = []
        self._stack: List[int] = []
        # serve workers close spans opened on the event loop; all span
        # list/stack mutation goes through this lock.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def now(self) -> float:
        """Seconds since the tracer epoch (plus any resume offset)."""
        return self._clock() - self._epoch + self._offset_s

    def spans(self) -> List[Span]:
        """All recorded spans, in start order."""
        return self._spans

    @property
    def depth(self) -> int:
        """Current nesting depth of open spans."""
        return len(self._stack)

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "phase", **args: Any):
        """Context manager timing the enclosed block as one span."""
        if not self._enabled:
            return _NULL_SPAN_CONTEXT
        return _SpanContext(self, name, category, args)

    def begin(self, name: str, category: str = "phase", **args: Any) -> int:
        """Open a span explicitly; returns its index for :meth:`end`."""
        if not self._enabled:
            return -1
        with self._lock:
            index = len(self._spans)
            parent = self._stack[-1] if self._stack else None
            self._spans.append(
                Span(
                    name=name,
                    category=category,
                    start_s=self.now(),
                    depth=len(self._stack),
                    index=index,
                    parent=parent,
                    args=dict(args),
                )
            )
            self._stack.append(index)
            return index

    def end(self, index: Optional[int] = None) -> None:
        """Close the innermost open span (or the one at *index*)."""
        if not self._enabled:
            return
        with self._lock:
            if not self._stack:
                return
            top = self._stack.pop()
            if index is not None and index >= 0 and index != top:
                # Mismatched close: unwind to the requested span so the tree
                # stays consistent even if an inner span leaked open.
                while self._stack and top != index:
                    self._spans[top].duration_s = (
                        self.now() - self._spans[top].start_s
                    )
                    top = self._stack.pop()
            span = self._spans[top]
            span.duration_s = self.now() - span.start_s

    def add_complete(
        self,
        name: str,
        category: str,
        duration_s: float,
        *,
        start_abs_s: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
        kind: str = "span",
    ) -> None:
        """Append an already-measured span (e.g. a kernel launch).

        ``start_abs_s`` is an absolute reading of this tracer's clock
        (``time.perf_counter()`` by default); when omitted the span is
        assumed to have just ended.  ``kind`` lets pre-measured timeline
        builders append flow endpoints (``"flow_s"``/``"flow_f"``, which
        the Chrome exporter renders as inter-lane arrows) instead of
        plain spans.
        """
        if not self._enabled:
            return
        if start_abs_s is None:
            start = self.now() - duration_s
        else:
            start = start_abs_s - self._epoch + self._offset_s
        with self._lock:
            index = len(self._spans)
            parent = self._stack[-1] if self._stack else None
            self._spans.append(
                Span(
                    name=name,
                    category=category,
                    start_s=start,
                    duration_s=float(duration_s),
                    depth=len(self._stack),
                    index=index,
                    parent=parent,
                    kind=kind,
                    args=dict(args or {}),
                )
            )

    def instant(self, name: str, category: str = "event", **args: Any) -> None:
        """Record a zero-duration point event."""
        if not self._enabled:
            return
        with self._lock:
            index = len(self._spans)
            parent = self._stack[-1] if self._stack else None
            self._spans.append(
                Span(
                    name=name,
                    category=category,
                    start_s=self.now(),
                    duration_s=0.0,
                    depth=len(self._stack),
                    index=index,
                    parent=parent,
                    kind="instant",
                    args=dict(args),
                )
            )

    def close_open_spans(self) -> None:
        """Force-close any spans still open (used before exporting)."""
        while self._enabled and self._stack:
            self.end()

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialise closed spans plus the current clock reading."""
        if not self._enabled:
            return {}
        with self._lock:
            return {
                "clock_s": self.now(),
                "spans": [
                    s.to_dict() for s in self._spans if s.duration_s is not None
                ],
            }

    def load_state(self, state: dict) -> None:
        """Restore spans saved by :meth:`to_state` into this tracer.

        Meant for a freshly-created tracer at resume time: restored
        spans keep their original timestamps and the clock is advanced
        past them, so post-resume spans never travel back in time.
        """
        if not self._enabled or not state:
            return
        restored = [Span.from_dict(p) for p in state.get("spans", [])]
        with self._lock:
            base = len(self._spans)
            for span in restored:
                span.index += base
                if span.parent is not None:
                    span.parent += base
                self._spans.append(span)
            clock_s = float(state.get("clock_s", 0.0))
            self._offset_s += max(0.0, clock_s - (self.now() - self._offset_s))


#: Shared disabled tracer for call sites without an observability hub.
NULL_TRACER = Tracer(enabled=False)
