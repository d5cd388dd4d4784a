"""Append-only bench trajectory: the repo's performance history.

``BENCH_trajectory.json`` at the repository root accumulates one
condensed entry per recorded bench run — label, git SHA, scale and the
median headline numbers per workload — so the question *"when did
vertex-move get slower?"* has an answer that survives branch history.
Entries are only ever appended; refreshing the committed baseline adds
a new entry rather than rewriting old ones.

:func:`trend_markdown` renders the trajectory as a per-workload trend
table (the Markdown dashboard ``gsap perf trend`` prints).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..atomicio import atomic_write_text
from .record import BenchRecordError, assert_valid

PathLike = Union[str, os.PathLike]

TRAJECTORY_SCHEMA = "gsap-bench-trajectory/1"

#: default trajectory location, relative to the current directory
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"


def _condense(record: dict) -> dict:
    """One trajectory entry from a full bench record."""
    workloads: Dict[str, dict] = {}
    for wl in record.get("workloads", []):
        samples = wl.get("samples") or {}
        entry: dict = {}
        for metric in ("runtime_s", "sim_time_s"):
            values = samples.get(metric)
            if values:
                entry[metric] = float(np.median(values))
        quality = wl.get("quality") or {}
        for metric in ("nmi", "mdl"):
            values = quality.get(metric)
            if values:
                entry[metric] = float(np.median(values))
        phases = wl.get("phases") or {}
        update = phases.get("blockmodel_update_s")
        if update:
            entry["blockmodel_update_s"] = float(np.median(update))
        workloads[wl["key"]] = entry
    environment = record.get("environment") or {}
    return {
        "label": record.get("label", ""),
        "created": record.get("created", ""),
        "git_sha": environment.get("git_sha"),
        "scale": record.get("scale", ""),
        "seed": record.get("seed", 0),
        "repeats": record.get("repeats", 0),
        "workloads": workloads,
    }


def load_trajectory(path: PathLike) -> dict:
    """Load a trajectory file; an absent file is an empty trajectory."""
    path = Path(path)
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "entries": []}
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise BenchRecordError(f"cannot read trajectory {path}: {err}")
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != TRAJECTORY_SCHEMA
        or not isinstance(payload.get("entries"), list)
    ):
        raise BenchRecordError(
            f"{path} is not a {TRAJECTORY_SCHEMA} trajectory"
        )
    return payload


def append_trajectory(
    path: PathLike, record: dict, *, notes: str = ""
) -> dict:
    """Validate *record*, append its condensed entry, rewrite *path*.

    Returns the updated trajectory payload.  Existing entries are never
    modified — the store is append-only by construction.
    """
    assert_valid(record, source="trajectory append")
    trajectory = load_trajectory(path)
    entry = _condense(record)
    if notes:
        entry["notes"] = notes
    trajectory["entries"].append(entry)
    atomic_write_text(path, json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def trend_markdown(
    trajectory: dict, *, metric: str = "runtime_s",
    max_entries: Optional[int] = None,
) -> str:
    """Per-workload trend table across trajectory entries.

    Columns are entries (oldest first, optionally truncated to the most
    recent ``max_entries``); rows are workload keys; cells hold the
    entry's median of *metric* with a delta vs the previous entry that
    carried the same workload.
    """
    entries = trajectory.get("entries", [])
    if max_entries is not None:
        entries = entries[-max_entries:]
    if not entries:
        return "# Bench trajectory\n\n(no entries yet)\n"
    keys: List[str] = []
    for entry in entries:
        for key in entry.get("workloads", {}):
            if key not in keys:
                keys.append(key)

    def column_title(entry: dict) -> str:
        sha = entry.get("git_sha") or "?"
        label = entry.get("label") or "run"
        return f"{label}@{sha[:8]}"

    lines = [
        f"# Bench trajectory — {metric}",
        "",
        f"{len(trajectory.get('entries', []))} entr(y/ies) recorded; "
        f"showing {len(entries)}.",
        "",
        "| workload | " + " | ".join(column_title(e) for e in entries) + " |",
        "|---|" + "---:|" * len(entries),
    ]
    for key in keys:
        cells = []
        previous: Optional[float] = None
        for entry in entries:
            value = (entry.get("workloads", {}).get(key) or {}).get(metric)
            if value is None:
                cells.append("—")
                continue
            cell = f"{value:.4g}"
            if previous is not None and previous > 0:
                delta = (value / previous - 1.0) * 100.0
                cell += f" ({delta:+.1f}%)"
            previous = value
            cells.append(cell)
        lines.append(f"| {key} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
