"""Unified observability: spans, convergence metrics, exporters, reports.

The subsystem has four layers (see docs/observability.md):

* :mod:`repro.obs.trace` — span-based tracer (run → plateau → phase →
  kernel), zero overhead when disabled;
* :mod:`repro.obs.metrics` — counters, gauges, histograms and series
  covering MCMC convergence telemetry and resilience events;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable),
  JSONL event streams, Prometheus text format;
* :mod:`repro.obs.report` — per-run Markdown/JSON summaries reproducing
  the paper's Fig. 10 breakdown and convergence curves from captured
  data;
* :mod:`repro.obs.slo` — declarative latency/availability objectives
  with sliding-window error budgets and multi-window burn-rate alerts;
* :mod:`repro.obs.flight` — bounded ring buffer of recent spans and
  wide events, dumped atomically for post-incident analysis.

:class:`Observability` bundles one tracer + one registry and is what the
pipeline wires through; :data:`NULL_OBS` is the shared disabled hub.
"""

from .distmerge import (
    DRIVER_PID,
    MERGED_TRACE_SCHEMA,
    merge_rank_traces,
    merged_trace_text,
    validate_merged_trace,
    write_merged_trace,
)
from .export import (
    chrome_trace_events,
    jsonl_events,
    process_metadata_events,
    prometheus_text,
    prometheus_text_multi,
    validate_prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .flight import FLIGHT_RECORDER_SCHEMA, FlightRecorder
from .hub import NULL_OBS, Observability
from .metrics import (
    DEFAULT_BUCKETS,
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from .report import (
    REPORT_SCHEMA,
    build_run_report,
    run_report_markdown,
    write_run_report,
)
from .slo import (
    BURN_WINDOWS,
    DEFAULT_OBJECTIVES,
    SLOEngine,
    SLOObjective,
    size_class_of,
)
from .trace import NULL_TRACER, Span, TraceContext, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "Tracer",
    "NULL_TRACER",
    "Span",
    "TraceContext",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "DEFAULT_BUCKETS",
    "DURATION_BUCKETS",
    "chrome_trace_events",
    "process_metadata_events",
    "write_chrome_trace",
    "jsonl_events",
    "write_jsonl",
    "prometheus_text",
    "prometheus_text_multi",
    "write_prometheus",
    "validate_prometheus_text",
    "DRIVER_PID",
    "MERGED_TRACE_SCHEMA",
    "merge_rank_traces",
    "merged_trace_text",
    "write_merged_trace",
    "validate_merged_trace",
    "SLOEngine",
    "SLOObjective",
    "DEFAULT_OBJECTIVES",
    "BURN_WINDOWS",
    "size_class_of",
    "FlightRecorder",
    "FLIGHT_RECORDER_SCHEMA",
    "build_run_report",
    "run_report_markdown",
    "write_run_report",
    "REPORT_SCHEMA",
]
