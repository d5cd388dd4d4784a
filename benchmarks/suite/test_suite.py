"""Fast checks of the repo benchmark itself (well under a minute).

Runs every workload function directly at tiny sizes — a 150-vertex
graph, six serve jobs, EDiSt on 120 vertices — through the same code
the benchmark runs at full size::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from layers import reconciliation_errors  # noqa: E402
from workloads import WORKLOADS, Op, evaluate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: tiny graphs score low NMI by chance, so the floors are off here
TINY = {
    "gsap-lowlow-5k": dict(num_vertices=150, warmup_vertices=60),
    "gsap-highhigh-5k": dict(num_vertices=150, warmup_vertices=60),
    "serve-small": dict(num_vertices=60, num_jobs=6),
    "edist-2rank": dict(num_vertices=120, warmup_vertices=30),
}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], nmi_floor=0.0, **TINY[name])


def test_spec_names_match_the_suite():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    workload = tiny(name)
    setups = [worker.setup_only(workload, 3, time.time())["setup_s"]]
    payload = run.finish_measured(
        worker.measured(workload, 3, 1.0, time.time()), setups
    )
    line = run.result_line(payload, SPEC["end_to_end"])
    assert line["correct"], payload["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert np.isfinite(entry["value"]) and entry["value"] > 0, metric


@pytest.mark.parametrize("name", list(TINY))
def test_traced_pass_reconciles_and_matches_untraced(name, tmp_path):
    payload = worker.traced(tiny(name), 3, 1.0, tmp_path)
    assert payload["problems"] == [] and payload["failed"] == 0
    metrics = payload["metrics"]
    assert reconciliation_errors(metrics) == []
    for phase in ("block_merge", "vertex_move"):
        assert metrics[f"{phase}.busy_s"] > 0
    line = run.result_line(payload, SPEC["per_layer"])
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = json.loads((tmp_path / "layers.json").read_text())
    assert layers["metrics"] == pytest.approx(metrics)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert any(e.get("name") == "vertex_move" for e in trace["traceEvents"])


def test_checks_count_a_wrong_mdl_and_sparse_labels_as_failures():
    workload = tiny("gsap-lowlow-5k")
    inputs = workload.prepare(5)
    ops, wall = workload.loop(inputs, 0.0, max_ops=1)
    good = ops[0]
    assert evaluate(workload, [good], wall).failed == 0
    wrong_mdl = dataclasses.replace(
        good, result=dataclasses.replace(good.result, mdl=good.result.mdl * 1.01)
    )
    # PartitionResult densifies labels on construction; corrupt a copy
    sparse_result = copy.copy(good.result)
    sparse_result.partition = good.result.partition + 1
    sparse = dataclasses.replace(good, result=sparse_result)
    crashed = Op(latency_s=1.0, graph=good.graph, truth=good.truth,
                 status="raised", error="boom")
    ev = evaluate(workload, [good, wrong_mdl, sparse, crashed], wall)
    assert ev.attempted == 4 and ev.failed == 3
    assert any("recomputed" in p for p in ev.problems)
    assert any("dense" in p for p in ev.problems)


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "serve-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
