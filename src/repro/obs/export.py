"""Exporters: Chrome trace-event JSON, JSONL event streams, Prometheus text.

Chrome trace files load directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``; spans become complete (``"ph": "X"``) events
nested by time containment on one thread track.  The Prometheus output
follows the text exposition format version 0.0.4 and can be served from
a node-exporter textfile collector.  JSONL emits one self-describing
JSON object per line — spans first, then metrics — for ad-hoc ``jq``
analysis and log shipping.

Every file writer here is atomic (:func:`repro.atomicio.atomic_write`,
the writer the checkpoint module uses too): a scrape or tail that races
an export never observes a half-written file.
:func:`validate_prometheus_text` checks an exposition page for format
violations — spelling of ``NaN``/``+Inf``, label escaping, cumulative
histogram buckets — so live-served scrapes can be asserted against the
same rules the file exports obey.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..atomicio import atomic_write_text
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Series
from .trace import Tracer

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
def process_metadata_events(
    pid: int,
    process_name: Optional[str] = None,
    thread_name: Optional[str] = None,
    tid: int = 0,
) -> List[dict]:
    """``ph: "M"`` metadata events labelling one pid/tid track.

    Without these Perfetto renders a trace as an unnamed process; rank
    lanes in a merged distributed trace need labelled pids to be
    readable.
    """
    events: List[dict] = []
    if process_name is not None:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": process_name},
        })
    if thread_name is not None:
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": thread_name},
        })
    return events


def chrome_trace_events(
    tracer: Tracer,
    pid: int = 1,
    *,
    process_name: Optional[str] = None,
    thread_name: Optional[str] = None,
) -> List[dict]:
    """Convert a tracer's spans into trace-event dicts (ts/dur in µs).

    ``process_name``/``thread_name`` prepend ``ph: "M"`` metadata events
    naming the track.  Spans of kind ``flow_s``/``flow_f`` become flow
    events (``ph: "s"``/``"f"``) — arrows between lanes in Perfetto —
    with the event ``id`` taken from the span's ``flow_id`` arg.
    """
    events: List[dict] = process_metadata_events(
        pid, process_name, thread_name
    )
    for span in tracer.spans():
        base = {
            "name": span.name,
            "cat": span.category,
            "ts": span.start_s * 1e6,
            "pid": pid,
            "tid": 0,
            "args": dict(span.args),
        }
        if span.kind == "instant":
            base["ph"] = "i"
            base["s"] = "t"  # thread-scoped instant
        elif span.kind in ("flow_s", "flow_f"):
            base["ph"] = "s" if span.kind == "flow_s" else "f"
            base["id"] = span.args.get("flow_id", span.index)
            if span.kind == "flow_f":
                base["bp"] = "e"  # bind the arrow to the enclosing slice
        else:
            base["ph"] = "X"
            duration = span.duration_s
            if duration is None:  # still open at export time
                duration = max(0.0, tracer.now() - span.start_s)
            base["dur"] = duration * 1e6
        events.append(base)
    return events


def write_chrome_trace(
    tracer: Tracer,
    path: PathLike,
    metadata: Optional[dict] = None,
    *,
    pid: int = 1,
    process_name: Optional[str] = "gsap",
    thread_name: Optional[str] = "main",
) -> Path:
    """Write a Perfetto/``chrome://tracing``-loadable trace file."""
    payload = {
        "traceEvents": chrome_trace_events(
            tracer, pid, process_name=process_name, thread_name=thread_name
        ),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=1))
    return path


# ----------------------------------------------------------------------
# JSONL event stream
# ----------------------------------------------------------------------
def jsonl_events(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[dict]:
    """Span + metric events as a list of JSON-serialisable dicts."""
    events: List[dict] = []
    if tracer is not None:
        for span in tracer.spans():
            events.append({"type": span.kind, **span.to_dict()})
    if registry is not None:
        for metric in registry:
            record: Dict[str, object] = {
                "type": "metric",
                "kind": metric.kind,
                "name": metric.name,
            }
            if isinstance(metric, (Counter, Gauge)):
                record["value"] = metric.value
            elif isinstance(metric, Histogram):
                record["count"] = metric.count
                record["sum"] = metric.sum
                record["buckets"] = [
                    [("+Inf" if math.isinf(b) else b), c]
                    for b, c in metric.cumulative_buckets()
                ]
            elif isinstance(metric, Series):
                record["points"] = [[s, v] for s, v in metric.points]
            events.append(record)
    return events


def write_jsonl(
    path: PathLike,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    """Write one JSON object per line: spans first, then metrics."""
    path = Path(path)
    lines = [json.dumps(e, sort_keys=True) for e in jsonl_events(tracer, registry)]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
    return path


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    """A sample value per the exposition format: ``+Inf``/``-Inf``/``NaN``.

    NaN is a *valid* Prometheus sample value (spelled exactly ``NaN``);
    ``%g`` would render it ``nan``, which scrapers reject.
    """
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.10g}"


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and line feed only (format 0.0.4)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    """Label value escaping: backslash, double quote and line feed."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_str(labels: Optional[Dict[str, object]], extra: str = "") -> str:
    """Render a label set as ``{k="v",...}`` (empty string when none).

    *extra* is a pre-rendered pair (the histogram ``le``) appended last.
    """
    pairs: List[str] = []
    for key, value in (labels or {}).items():
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(
                f"label name {key!r} is not Prometheus-compatible "
                "([a-zA-Z_][a-zA-Z0-9_]*)"
            )
        pairs.append(f'{key}="{_escape_label_value(str(value))}"')
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(
    registry: MetricsRegistry,
    prefix: str = "gsap_",
    labels: Optional[Dict[str, object]] = None,
) -> str:
    """Render the registry in Prometheus text format 0.0.4.

    Counters/gauges map directly; histograms emit cumulative
    ``_bucket{le=...}`` lines (the spec-mandated ``+Inf`` bucket last)
    plus ``_sum``/``_count``; a series is exposed as a gauge holding
    its latest value (the full trajectory belongs in the JSONL/report
    exports).  *labels* attach to every sample line — run-level
    provenance such as ``{"algorithm": "GSAP", "seed": 7}`` — with
    values escaped per the exposition format.
    """
    lines: List[str] = []
    lbl = _label_str(labels)
    for metric in sorted(registry, key=lambda m: m.name):
        name = f"{prefix}{metric.name}"
        if metric.help:
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{lbl} {_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{lbl} {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {name} histogram")
            for bound, cum in metric.cumulative_buckets():
                bucket_lbl = _label_str(labels, extra=f'le="{_fmt(bound)}"')
                lines.append(f"{name}_bucket{bucket_lbl} {cum}")
            lines.append(f"{name}_sum{lbl} {_fmt(metric.sum)}")
            lines.append(f"{name}_count{lbl} {metric.count}")
        elif isinstance(metric, Series):
            lines.append(f"# TYPE {name} gauge")
            last = metric.last
            lines.append(
                f"{name}{lbl} {_fmt(last if last is not None else 0.0)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def prometheus_text_multi(
    registries: Dict[object, MetricsRegistry],
    *,
    label: str,
    prefix: str = "gsap_",
    labels: Optional[Dict[str, object]] = None,
) -> str:
    """Render several registries as one page, distinguished by *label*.

    The per-rank metric scopes of a distributed run all carry the same
    metric names; naively concatenating one :func:`prometheus_text`
    page per rank would repeat ``# TYPE`` groups for the same name,
    which the exposition format forbids.  This renderer emits each
    metric's HELP/TYPE comments once, then one sample (or histogram
    group) per registry with ``{label="<key>"}`` attached — e.g.
    ``gsap_dist_rank_compute_seconds_total{rank="3"}``.  *labels* are
    shared provenance labels added to every sample line.
    """
    if not _LABEL_NAME_RE.match(label):
        raise ValueError(
            f"label name {label!r} is not Prometheus-compatible "
            "([a-zA-Z_][a-zA-Z0-9_]*)"
        )
    # metric name -> [(label value, metric)], keeping registry order
    by_name: Dict[str, List[tuple]] = {}
    helps: Dict[str, str] = {}
    for key in sorted(registries, key=str):
        for metric in sorted(registries[key], key=lambda m: m.name):
            by_name.setdefault(metric.name, []).append((key, metric))
            if metric.help and metric.name not in helps:
                helps[metric.name] = metric.help
    lines: List[str] = []
    for mname in sorted(by_name):
        name = f"{prefix}{mname}"
        samples = by_name[mname]
        if mname in helps:
            lines.append(f"# HELP {name} {_escape_help(helps[mname])}")
        kind = samples[0][1]
        if isinstance(kind, Counter):
            lines.append(f"# TYPE {name} counter")
        elif isinstance(kind, Histogram):
            lines.append(f"# TYPE {name} histogram")
        else:  # Gauge and Series both expose as gauges
            lines.append(f"# TYPE {name} gauge")
        for key, metric in samples:
            scoped = dict(labels or {})
            scoped[label] = key
            lbl = _label_str(scoped)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{lbl} {_fmt(metric.value)}")
            elif isinstance(metric, Histogram):
                for bound, cum in metric.cumulative_buckets():
                    bucket_lbl = _label_str(
                        scoped, extra=f'le="{_fmt(bound)}"'
                    )
                    lines.append(f"{name}_bucket{bucket_lbl} {cum}")
                lines.append(f"{name}_sum{lbl} {_fmt(metric.sum)}")
                lines.append(f"{name}_count{lbl} {metric.count}")
            elif isinstance(metric, Series):
                last = metric.last
                lines.append(
                    f"{name}{lbl} {_fmt(last if last is not None else 0.0)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    registry: MetricsRegistry,
    path: PathLike,
    prefix: str = "gsap_",
    labels: Optional[Dict[str, object]] = None,
) -> Path:
    path = Path(path)
    atomic_write_text(
        path, prometheus_text(registry, prefix=prefix, labels=labels)
    )
    return path


# ----------------------------------------------------------------------
# Exposition-format validation (for live scrapes)
# ----------------------------------------------------------------------
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?"
    r" (?P<value>\S+)"
    r"(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"'
)


def _valid_sample_value(raw: str) -> bool:
    """A sample value must spell specials exactly ``NaN``/``+Inf``/``-Inf``."""
    if raw in ("NaN", "+Inf", "-Inf", "Inf"):
        return True
    try:
        value = float(raw)
    except ValueError:
        return False
    # float() accepts "nan"/"inf"/"infinity" spellings the exposition
    # format forbids; only plain finite numerals pass through here.
    return math.isfinite(value)


def validate_prometheus_text(text: str) -> List[str]:
    """Check an exposition page against text-format 0.0.4 rules.

    Returns a list of human-readable violations (empty when the page is
    clean): malformed comment/sample lines, invalid metric or label
    names, bad special-value spelling (``nan``/``inf`` lower-case),
    unescaped quotes in label values, unknown TYPE keywords, histogram
    bucket series that are non-cumulative or missing the ``+Inf``
    bucket, and samples for names never declared by a TYPE line when
    any TYPE lines are present.
    """
    violations: List[str] = []
    typed: Dict[str, str] = {}
    bucket_series: Dict[str, List[float]] = {}
    bucket_bounds: Dict[str, List[float]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _METRIC_NAME_RE.match(parts[2]):
                    violations.append(
                        f"line {lineno}: malformed {parts[1]} comment: {line!r}"
                    )
                    continue
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        violations.append(
                            f"line {lineno}: unknown TYPE {kind!r} "
                            f"for {parts[2]}"
                        )
                    typed[parts[2]] = kind
            # other comments are free-form
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            violations.append(f"line {lineno}: malformed sample line: {line!r}")
            continue
        name = match.group("name")
        labels_raw = match.group("labels")
        value_raw = match.group("value")
        if not _valid_sample_value(value_raw):
            violations.append(
                f"line {lineno}: invalid sample value {value_raw!r} "
                f"for {name} (specials must be NaN/+Inf/-Inf)"
            )
        le_value: Optional[str] = None
        if labels_raw:
            body = labels_raw[1:-1].rstrip(",")
            pos = 0
            while pos < len(body):
                pair = _LABEL_PAIR_RE.match(body, pos)
                if not pair:
                    violations.append(
                        f"line {lineno}: malformed label set {labels_raw!r}"
                    )
                    break
                if pair.group("key") == "le":
                    le_value = (
                        pair.group("value")
                        .replace("\\\\", "\\")
                        .replace('\\"', '"')
                        .replace("\\n", "\n")
                    )
                pos = pair.end()
                if pos < len(body):
                    if body[pos] != ",":
                        violations.append(
                            f"line {lineno}: malformed label set "
                            f"{labels_raw!r}"
                        )
                        break
                    pos += 1
        if name.endswith("_bucket") and le_value is not None:
            base = name[: -len("_bucket")]
            try:
                bound = (
                    math.inf if le_value == "+Inf"
                    else -math.inf if le_value == "-Inf"
                    else float(le_value)
                )
            except ValueError:
                violations.append(
                    f"line {lineno}: non-numeric le={le_value!r} on {name}"
                )
                continue
            if le_value not in ("+Inf", "-Inf") and not math.isfinite(bound):
                violations.append(
                    f"line {lineno}: special le bound {le_value!r} must be "
                    f"spelled +Inf/-Inf on {name}"
                )
            try:
                bucket_series.setdefault(base, []).append(float(value_raw))
                bucket_bounds.setdefault(base, []).append(bound)
            except ValueError:
                pass

    for base, counts in bucket_series.items():
        bounds = bucket_bounds[base]
        if not any(math.isinf(b) and b > 0 for b in bounds):
            violations.append(
                f"histogram {base}: bucket series missing the +Inf bucket"
            )
        ordered = sorted(zip(bounds, counts))
        values = [c for _, c in ordered]
        if any(b > a for a, b in zip(values[1:], values)):
            violations.append(
                f"histogram {base}: bucket counts are not cumulative"
            )
    if typed:
        declared = set(typed)
        for base in bucket_series:
            if base not in declared:
                violations.append(
                    f"histogram {base}: _bucket samples without a TYPE line"
                )
    return violations
