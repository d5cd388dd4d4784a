"""Merge per-rank trace lanes into one multi-process Chrome trace.

Each simulated rank of a distributed run records into its own
:class:`~repro.obs.trace.Tracer` (see :mod:`repro.dist.lanes`);
:func:`merge_rank_traces` flattens them into a single Perfetto-loadable
document where **pid = rank**, every lane carries ``process_name`` /
``thread_name`` metadata events, and the driver's wall-clock tracer (the
partitioner's own span tree) rides along on a reserved high pid so the
rank lanes stay grouped at the top.

Merging is deterministic: events sort by a total key (metadata first,
then pid / timestamp / phase / name, stable for ties) and serialisation
uses sorted keys with no wall-clock stamps, so merging the same lanes
twice produces byte-identical files — the property the trace-diff tests
pin down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from ..atomicio import atomic_write_text
from .export import PathLike, chrome_trace_events
from .trace import Tracer

__all__ = [
    "DRIVER_PID",
    "MERGED_TRACE_SCHEMA",
    "merge_rank_traces",
    "merged_trace_text",
    "write_merged_trace",
    "validate_merged_trace",
]

#: pid of the driver (wall-clock) lane — far above any plausible rank
DRIVER_PID = 10_000

MERGED_TRACE_SCHEMA = "gsap-dist-trace/1"


def _event_sort_key(event: dict) -> tuple:
    return (
        0 if event.get("ph") == "M" else 1,
        int(event.get("pid", 0)),
        float(event.get("ts", 0.0)),
        str(event.get("ph", "")),
        str(event.get("name", "")),
        str(event.get("id", "")),
    )


def merge_rank_traces(
    rank_tracers: Dict[int, Tracer],
    *,
    driver: Optional[Tracer] = None,
    metadata: Optional[dict] = None,
) -> dict:
    """Build the merged multi-process trace payload.

    ``rank_tracers`` maps rank -> lane tracer (pid = rank in the
    output); ``driver`` optionally adds the partitioner's wall-clock
    span tree as a separate labelled process (pid
    :data:`DRIVER_PID`).  Pure function of its inputs — no clocks, no
    randomness — so repeated merges are identical.
    """
    events: List[dict] = []
    for rank in sorted(rank_tracers):
        events.extend(chrome_trace_events(
            rank_tracers[rank], pid=rank,
            process_name=f"rank {rank}",
            thread_name=f"rank {rank}",
        ))
    if driver is not None:
        events.extend(chrome_trace_events(
            driver, pid=DRIVER_PID,
            process_name="driver", thread_name="driver",
        ))
    events.sort(key=_event_sort_key)  # stable: tracer order breaks ties
    other = {"schema": MERGED_TRACE_SCHEMA,
             "num_ranks": len(rank_tracers)}
    other.update(metadata or {})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def merged_trace_text(payload: dict) -> str:
    """Canonical serialisation — the byte-identity unit of the merge."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_merged_trace(payload: dict, path: PathLike) -> Path:
    """Atomically write a merged trace payload to *path*."""
    path = Path(path)
    atomic_write_text(path, merged_trace_text(payload))
    return path


def validate_merged_trace(payload: dict) -> List[str]:
    """Structural checks on a merged trace; returns problems (empty=ok).

    Checks the schema marker, that every rank lane carries
    ``process_name``/``thread_name`` metadata events, that flow events
    come in send/finish pairs sharing an id, and that complete events
    carry non-negative timestamps/durations.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    other = payload.get("otherData") or {}
    if other.get("schema") != MERGED_TRACE_SCHEMA:
        problems.append(
            f"otherData.schema: expected {MERGED_TRACE_SCHEMA!r}, "
            f"got {other.get('schema')!r}"
        )
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("traceEvents: missing or empty")
        return problems
    named_pids = set()
    flow_starts: Dict[object, int] = {}
    flow_ends: Dict[object, int] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M" and event.get("name") == "process_name":
            named_pids.add(event.get("pid"))
        elif ph in ("s", "f"):
            bucket = flow_starts if ph == "s" else flow_ends
            bucket[event.get("id")] = bucket.get(event.get("id"), 0) + 1
        elif ph == "X":
            if float(event.get("ts", 0.0)) < 0:
                problems.append(f"traceEvents[{i}]: negative timestamp")
            if float(event.get("dur", 0.0)) < 0:
                problems.append(f"traceEvents[{i}]: negative duration")
    lane_pids = {
        e.get("pid") for e in events
        if e.get("ph") != "M" and e.get("pid") != DRIVER_PID
    }
    unnamed = sorted(p for p in lane_pids if p not in named_pids)
    if unnamed:
        problems.append(f"rank lanes without process_name metadata: {unnamed}")
    for flow_id, n in sorted(flow_starts.items(), key=lambda kv: str(kv[0])):
        if flow_ends.get(flow_id, 0) != n:
            problems.append(
                f"flow id {flow_id}: {n} send(s) vs "
                f"{flow_ends.get(flow_id, 0)} finish(es)"
            )
    for flow_id in sorted(set(flow_ends) - set(flow_starts), key=str):
        problems.append(f"flow id {flow_id}: finish without a send")
    return problems
