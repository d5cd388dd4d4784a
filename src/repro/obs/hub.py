"""The :class:`Observability` hub: one tracer + one metrics registry.

Pipeline code (partitioner, phases, device, resilience) takes an
optional hub and calls its convenience recorders inline; every recorder
checks :attr:`Observability.enabled` first and returns immediately when
observability is off, so the instrumented hot paths cost nothing in the
default configuration and — crucially — never touch the RNG streams, so
a traced run produces a bit-identical partition to an untraced one.

The hub serialises with :meth:`to_state`/:meth:`load_state` and rides in
the run checkpoint, so a killed-and-resumed run reports telemetry for
the *whole* logical run, not just the post-resume tail.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence, Union

import numpy as np

from ..config import ObservabilityConfig
from .metrics import MetricsRegistry
from .trace import _NULL_SPAN_CONTEXT, Tracer


class Observability:
    """Bundles a :class:`Tracer` and a :class:`MetricsRegistry`.

    Parameters
    ----------
    config:
        An :class:`~repro.config.ObservabilityConfig`; when omitted a
        config with the given *enabled* flag is used.
    clock:
        Monotonic clock for the tracer; injectable for tests.
    """

    def __init__(
        self,
        config: Optional[ObservabilityConfig] = None,
        *,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if config is None:
            config = ObservabilityConfig(
                enabled=bool(enabled) if enabled is not None else False
            )
        elif enabled is not None and enabled != config.enabled:
            config = config.replace(enabled=bool(enabled))
        self.config = config
        self.tracer = Tracer(enabled=config.enabled, clock=clock)
        self.metrics = MetricsRegistry()

    @classmethod
    def from_config(cls, config: Optional[ObservabilityConfig]) -> "Observability":
        return cls(config=config)

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "phase", **args: Any):
        """Context manager timing the enclosed block (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return self.tracer.span(name, category, **args)

    def instant(self, name: str, category: str = "event", **args: Any) -> None:
        if self.enabled:
            self.tracer.instant(name, category, **args)

    @contextmanager
    def attach_device(self, device) -> Iterator[None]:
        """Bridge a device's kernel launches into this tracer.

        Sets ``device.tracer`` for the duration of the block (restoring
        the previous tracer after), so kernel launches appear as leaf
        spans under the active phase span.
        """
        if not self.enabled:
            yield
            return
        previous = getattr(device, "tracer", None)
        device.tracer = self.tracer
        try:
            yield
        finally:
            device.tracer = previous

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, help: str = "") -> None:
        if self.enabled:
            self.metrics.counter(name, help).inc(amount)

    def gauge_set(self, name: str, value: float, help: str = "") -> None:
        if self.enabled:
            self.metrics.gauge(name, help).set(value)

    def observe(
        self, name: str, value: float, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if self.enabled:
            self.metrics.histogram(name, help, buckets=buckets).observe(value)

    def observe_many(
        self, name: str, values: Union[np.ndarray, Sequence[float]],
        help: str = "", buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if self.enabled:
            self.metrics.histogram(name, help, buckets=buckets).observe_many(values)

    def series_append(
        self, name: str, step: Optional[float], value: float, help: str = ""
    ) -> None:
        if self.enabled:
            self.metrics.series(name, help).append(step, value)

    def counter_total(self, name: str) -> float:
        """Current value of a counter (0.0 when disabled or never bumped).

        Read-side convenience for reports and tests — unlike
        :meth:`count` it never *creates* the counter, so probing for a
        metric (e.g. ``integrity_repairs_total``) leaves no trace.
        """
        if not self.enabled:
            return 0.0
        metric = self.metrics.get(name)
        return float(metric.value) if metric is not None and hasattr(metric, "value") else 0.0

    # ------------------------------------------------------------------
    # checkpoint round-trip
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        if not self.enabled:
            return {}
        return {
            "tracer": self.tracer.to_state(),
            "metrics": self.metrics.to_state(),
        }

    def load_state(self, state: dict) -> None:
        if not self.enabled or not state:
            return
        self.tracer.load_state(state.get("tracer", {}))
        self.metrics.load_state(state.get("metrics", {}))


#: Shared disabled hub: the default for every instrumented call site.
NULL_OBS = Observability(enabled=False)
