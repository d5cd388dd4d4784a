"""The versioned :data:`BENCH_RECORD_SCHEMA` bench-record format.

A bench record is the unit every performance measurement in this repo
flows through: one JSON document holding the workload matrix that was
run, the environment it ran in, and — per workload — the *raw
per-repeat samples* (never just a mean) for runtime, simulated device
time, per-phase timings, per-kernel attribution and quality metrics.
Raw samples are the non-negotiable part: the stats layer
(:mod:`repro.perf.stats`) needs them for bootstrap intervals and rank
tests, and a record that stored only summaries could never be
re-analysed with a better method later.

Schema sketch (version ``gsap-bench-record/1``)::

    {
      "schema": "gsap-bench-record/1",
      "label": "quick-baseline",
      "scale": "quick",
      "seed": 0,
      "repeats": 5,
      "warmup": 1,
      "created": "2026-08-06T12:00:00+00:00",
      "environment": {...},              # repro.envinfo fingerprint
      "workloads": [
        {
          "key": "GSAP/low_low/200",
          "algorithm": "GSAP", "category": "low_low",
          "num_vertices": 200, "num_edges": 1598, "variant": "",
          "samples": {"runtime_s": [...], "sim_time_s": [...]},
          "phases":  {"block_merge_s": [...], ...},
          "kernels": {"vertex_move/segmented_reduce": {
              "wall_s": [...], "sim_s": [...], "launches": [...],
              "work_items": [...], "bytes_moved": [...]}},
          "quality": {"mdl": [...], "nmi": [...], "ari": [...],
                      "num_blocks": [...]},
          "tracer":  {"spans": 123, "phase_s": {...}} | null
        }
      ],
      "scaling": {                        # optional strong/weak-scaling curve
        "dimension": "ranks",
        "points": [
          {"value": 4, "speedup": 3.1, "efficiency": 0.77,
           "imbalance": 1.12, ...}
        ]
      }
    }

Every list under ``samples``/``phases``/``quality`` has one entry per
retained repeat (warmup repeats are discarded before recording).
Kernel keys are ``phase/kernel_name`` so a diff can distinguish
``vertex_move/segmented_reduce`` from the same primitive launched
during block-merge.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..atomicio import atomic_write_text
from ..envinfo import environment_fingerprint
from ..errors import ReproError

PathLike = Union[str, os.PathLike]

BENCH_RECORD_SCHEMA = "gsap-bench-record/1"

#: sample families a workload may carry, with their required-ness
_SAMPLE_KEYS = ("runtime_s", "sim_time_s")
_QUALITY_KEYS = ("mdl", "nmi", "ari", "num_blocks")
_KERNEL_KEYS = ("wall_s", "sim_s", "launches", "work_items", "bytes_moved")


class BenchRecordError(ReproError):
    """A bench record failed schema validation."""

    def __init__(self, message: str, problems: Optional[List[str]] = None):
        super().__init__(message)
        self.problems = list(problems or [])


def new_record(
    *,
    label: str = "",
    seed: int = 0,
    repeats: int = 1,
    warmup: int = 0,
    scale: Optional[str] = None,
    environment: Optional[dict] = None,
    created: Optional[str] = None,
) -> dict:
    """A fresh, empty record carrying provenance but no workloads yet."""
    if scale is None:
        scale = os.environ.get("GSAP_BENCH_SCALE", "quick")
    return {
        "schema": BENCH_RECORD_SCHEMA,
        "label": label,
        "scale": scale,
        "seed": int(seed),
        "repeats": int(repeats),
        "warmup": int(warmup),
        "created": created or datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "environment": (
            environment if environment is not None
            else environment_fingerprint()
        ),
        "workloads": [],
    }


def new_workload(
    *,
    key: str,
    algorithm: str,
    category: str = "",
    num_vertices: int = 0,
    num_edges: int = 0,
    variant: str = "",
) -> dict:
    """A fresh workload entry with empty sample families."""
    return {
        "key": key,
        "algorithm": algorithm,
        "category": category,
        "num_vertices": int(num_vertices),
        "num_edges": int(num_edges),
        "variant": variant,
        "samples": {"runtime_s": [], "sim_time_s": []},
        "phases": {},
        "kernels": {},
        "quality": {},
        "tracer": None,
    }


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _check_samples(label: str, values, problems: List[str]) -> None:
    if not isinstance(values, list) or not values:
        problems.append(f"{label}: must be a non-empty list of samples")
        return
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            problems.append(f"{label}: non-numeric sample {v!r}")
            return


def validate_record(record) -> List[str]:
    """Validate *record* against the schema; return a list of problems.

    An empty list means the record conforms.  Validation is structural
    — it checks shape, versions and sample-list consistency, not
    whether the numbers are plausible.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    schema = record.get("schema")
    if schema != BENCH_RECORD_SCHEMA:
        problems.append(
            f"schema: expected {BENCH_RECORD_SCHEMA!r}, got {schema!r}"
        )
        return problems
    for field, typ in (
        ("label", str), ("scale", str), ("seed", int),
        ("repeats", int), ("warmup", int),
    ):
        if not isinstance(record.get(field), typ):
            problems.append(f"{field}: missing or not {typ.__name__}")
    environment = record.get("environment")
    if not isinstance(environment, dict):
        problems.append("environment: missing fingerprint object")
    workloads = record.get("workloads")
    if not isinstance(workloads, list):
        problems.append("workloads: missing list")
        return problems
    seen_keys = set()
    for i, wl in enumerate(workloads):
        where = f"workloads[{i}]"
        if not isinstance(wl, dict):
            problems.append(f"{where}: not an object")
            continue
        key = wl.get("key")
        if not isinstance(key, str) or not key:
            problems.append(f"{where}.key: missing")
        elif key in seen_keys:
            problems.append(f"{where}.key: duplicate workload key {key!r}")
        else:
            seen_keys.add(key)
        if not isinstance(wl.get("algorithm"), str):
            problems.append(f"{where}.algorithm: missing")
        samples = wl.get("samples")
        if not isinstance(samples, dict):
            problems.append(f"{where}.samples: missing object")
            continue
        _check_samples(f"{where}.samples.runtime_s",
                       samples.get("runtime_s"), problems)
        n = len(samples.get("runtime_s") or [])
        for fam_name, fam, required in (
            ("samples", samples, _SAMPLE_KEYS),
            ("phases", wl.get("phases") or {}, ()),
            ("quality", wl.get("quality") or {}, ()),
        ):
            if not isinstance(fam, dict):
                problems.append(f"{where}.{fam_name}: not an object")
                continue
            for sub, values in fam.items():
                if values is None:
                    continue
                _check_samples(f"{where}.{fam_name}.{sub}", values, problems)
                if isinstance(values, list) and n and len(values) != n:
                    problems.append(
                        f"{where}.{fam_name}.{sub}: {len(values)} samples, "
                        f"expected {n} (one per repeat)"
                    )
        kernels = wl.get("kernels")
        if kernels is None:
            kernels = {}
        if not isinstance(kernels, dict):
            problems.append(f"{where}.kernels: not an object")
            kernels = {}
        for kname, stats in kernels.items():
            if not isinstance(stats, dict):
                problems.append(f"{where}.kernels[{kname!r}]: not an object")
                continue
            for sub in _KERNEL_KEYS:
                values = stats.get(sub)
                if values is None:
                    continue
                _check_samples(
                    f"{where}.kernels[{kname!r}].{sub}", values, problems
                )
        tracer = wl.get("tracer")
        if tracer is not None and not isinstance(tracer, dict):
            problems.append(f"{where}.tracer: must be null or an object")
    _check_scaling(record.get("scaling"), problems)
    return problems


def _check_scaling(scaling, problems: List[str]) -> None:
    """Validate the optional per-rank/scaling section.

    ``scaling.dimension`` names the swept axis (``"ranks"``);
    ``scaling.points`` is a list of objects each carrying a numeric
    ``value`` (the axis position) plus free-form numeric curve fields
    (``speedup``, ``efficiency``, ``imbalance``, ...).  Point values
    must be unique and ascending so curves diff positionally.
    """
    if scaling is None:
        return
    if not isinstance(scaling, dict):
        problems.append("scaling: must be an object")
        return
    if not isinstance(scaling.get("dimension"), str) or not scaling["dimension"]:
        problems.append("scaling.dimension: missing or not a string")
    points = scaling.get("points")
    if not isinstance(points, list) or not points:
        problems.append("scaling.points: must be a non-empty list")
        return
    last_value = None
    for i, point in enumerate(points):
        where = f"scaling.points[{i}]"
        if not isinstance(point, dict):
            problems.append(f"{where}: not an object")
            continue
        value = point.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{where}.value: missing or non-numeric")
            continue
        if last_value is not None and value <= last_value:
            problems.append(
                f"{where}.value: {value} not strictly greater than the "
                f"previous point ({last_value})"
            )
        last_value = value
        for key, v in point.items():
            if key == "value" or v is None:
                continue
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                problems.append(f"{where}.{key}: non-numeric value {v!r}")


def assert_valid(record, *, source: str = "bench record") -> dict:
    """Raise :class:`BenchRecordError` unless *record* conforms."""
    problems = validate_record(record)
    if problems:
        detail = "; ".join(problems[:8])
        if len(problems) > 8:
            detail += f"; ... {len(problems) - 8} more"
        raise BenchRecordError(
            f"{source} failed schema validation: {detail}", problems
        )
    return record


# ----------------------------------------------------------------------
# i/o
# ----------------------------------------------------------------------
def write_record(record: dict, path: PathLike) -> Path:
    """Validate and write a record as pretty-printed JSON, crash-safely."""
    assert_valid(record, source=str(path))
    return atomic_write_text(path, json.dumps(record, indent=2) + "\n")


def load_record(path: PathLike) -> dict:
    """Load and validate a record; raises :class:`BenchRecordError`."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise BenchRecordError(f"cannot read bench record {path}: {err}")
    return assert_valid(record, source=str(path))


def workload_index(record: dict) -> Dict[str, dict]:
    """Workloads keyed by their ``key`` field."""
    return {wl["key"]: wl for wl in record.get("workloads", [])}
