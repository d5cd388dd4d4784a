"""End-to-end tests of the performance observatory.

The two acceptance behaviours the perf gate stands on:

* an **A/A comparison** of two identical-code runs stays neutral and
  exits 0 — the dual gate (median-ratio tolerance AND Mann-Whitney
  significance) absorbs run-to-run noise;
* an **injected slowdown** (a sleep shim wrapping one kernel body) is
  flagged as a significant regression naming both the workload and the
  offending ``phase/kernel``, with a confidence interval.

Plus: schema round-trips, NULL_OBS records, trajectory appends and the
committed baseline artifacts validating against the schema.
"""

import copy
import json
import time
from pathlib import Path

import pytest

from repro.bench.workloads import WorkloadSpec
from repro.cli import main
from repro.envinfo import environment_fingerprint, fingerprint_mismatches
from repro.gpusim.device import Device
from repro.perf import (
    BENCH_RECORD_SCHEMA,
    TRAJECTORY_SCHEMA,
    BenchRecordError,
    PerfWorkload,
    append_trajectory,
    assert_valid,
    compare_markdown,
    compare_records,
    gate_workloads,
    load_record,
    load_trajectory,
    new_record,
    new_workload,
    run_workloads,
    trend_markdown,
    validate_record,
    write_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
QUICK = [PerfWorkload(WorkloadSpec("low_low", 200, "GSAP"))]

TARGET_KERNEL = "move_delta_hastings"
TARGET_PHASE = "vertex_move"
TARGET_PAIR = f"{TARGET_PHASE}/{TARGET_KERNEL}"
#: repeats per record: with 3 a Mann-Whitney test cannot go below
#: p = 0.10, so one noisy run decides a verdict
REPEATS = 6
#: sleep added to every TARGET_KERNEL launch; a ~0.25 s run makes
#: ~150 launches, so the slowed run takes about twice as long, well
#: past the gate's 0.25 runtime tolerance
SLOWDOWN_S = 2e-3


def _quick_run(**kwargs):
    kwargs.setdefault("repeats", REPEATS)
    kwargs.setdefault("warmup", 0)
    return run_workloads(QUICK, **kwargs)


@pytest.fixture(scope="module")
def record_a():
    return _quick_run(label="aa-left")


@pytest.fixture(scope="module")
def record_b():
    return _quick_run(label="aa-right")


class TestSchema:
    def test_runner_record_is_valid(self, record_a):
        assert validate_record(record_a) == []
        assert_valid(record_a)  # must not raise

    def test_round_trip(self, record_a, tmp_path):
        path = write_record(record_a, tmp_path / "r.json")
        loaded = load_record(path)
        assert loaded == record_a
        assert loaded["schema"] == BENCH_RECORD_SCHEMA

    def test_load_rejects_wrong_schema(self, record_a, tmp_path):
        bad = dict(record_a, schema="gsap-bench-record/999")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(BenchRecordError) as exc:
            load_record(path)
        assert any("schema" in p for p in exc.value.problems)

    def test_validate_flags_ragged_samples(self):
        record = new_record(label="x", repeats=2)
        wl = new_workload(key="k", algorithm="GSAP")
        wl["samples"]["runtime_s"] = [1.0, 1.1]
        wl["samples"]["sim_time_s"] = [0.5]  # one repeat short
        record["workloads"].append(wl)
        problems = validate_record(record)
        assert any("sim_time_s" in p for p in problems)

    def test_validate_flags_empty_samples_and_duplicates(self):
        record = new_record(label="x")
        for _ in range(2):  # duplicate workload key
            wl = new_workload(key="dup", algorithm="GSAP")
            wl["samples"]["runtime_s"] = []
            wl["samples"]["sim_time_s"] = []
            record["workloads"].append(wl)
        problems = validate_record(record)
        assert any("dup" in p and "duplicate" in p.lower() for p in problems)
        assert any("runtime_s" in p for p in problems)


class TestRunner:
    def test_raw_samples_one_per_repeat(self, record_a):
        (wl,) = record_a["workloads"]
        assert wl["key"] == "GSAP/low_low/200"
        assert len(wl["samples"]["runtime_s"]) == REPEATS
        assert len(wl["samples"]["sim_time_s"]) == REPEATS
        assert all(v > 0 for v in wl["samples"]["runtime_s"])

    def test_kernel_attribution_keys_and_lengths(self, record_a):
        (wl,) = record_a["workloads"]
        assert wl["kernels"], "runner must capture per-kernel attribution"
        assert TARGET_PAIR in wl["kernels"]
        for stats in wl["kernels"].values():
            assert set(stats) == {
                "wall_s", "sim_s", "launches", "work_items", "bytes_moved",
            }
            assert all(len(v) == REPEATS for v in stats.values())

    def test_phases_quality_and_tracer(self, record_a):
        (wl,) = record_a["workloads"]
        assert wl["phases"], "per-phase timings expected"
        assert {"mdl", "nmi", "ari", "num_blocks"} <= set(wl["quality"])
        assert wl["tracer"] is not None
        assert wl["tracer"]["spans"] > 0
        assert wl["tracer"]["phase_s"], "phase spans should aggregate"

    def test_environment_fingerprint_embedded(self, record_a):
        env = record_a["environment"]
        assert env["python"] and env["numpy"]
        assert env["bench_scale"] == record_a["scale"]

    def test_null_obs_record_stays_valid(self):
        record = _quick_run(repeats=1, label="null-obs", collect_obs=False)
        assert_valid(record)
        (wl,) = record["workloads"]
        assert wl["tracer"] is None
        assert len(wl["samples"]["runtime_s"]) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            run_workloads(QUICK, repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            run_workloads(QUICK, repeats=1, warmup=-1)

    def test_gate_suite_shape(self):
        suite = gate_workloads()
        assert len(suite) >= 3
        assert all(wl.spec.algorithm == "GSAP" for wl in suite)


class TestAAComparison:
    def test_identical_code_is_neutral(self, record_a, record_b):
        report = compare_records(record_a, record_b)
        assert report.verdicts, "comparable workloads must produce verdicts"
        assert not report.has_regressions, "\n".join(
            v.describe() for v in report.regressions
        )
        assert not report.environment_warnings
        assert "No regressions detected" in compare_markdown(report)

    def test_cli_aa_exits_zero(self, record_a, record_b, tmp_path, capsys):
        a = write_record(record_a, tmp_path / "a.json")
        b = write_record(record_b, tmp_path / "b.json")
        code = main([
            "perf", "compare", str(a), str(b), "--fail-on-regression",
        ])
        assert code == 0
        assert "No regressions detected" in capsys.readouterr().out


class TestKernelKeysOnOneSide:
    def test_renamed_kernel_is_reported_not_dropped(self, record_a):
        """A kernel key present on one side only is listed per workload;
        the pairs present on both sides are judged exactly as before."""
        candidate = copy.deepcopy(record_a)
        (wl,) = candidate["workloads"]
        wl["kernels"]["vertex_move/renamed"] = wl["kernels"].pop(TARGET_PAIR)
        report = compare_records(record_a, candidate)
        key = wl["key"]
        assert report.missing_kernels == {key: [TARGET_PAIR]}
        assert report.new_kernels == {key: ["vertex_move/renamed"]}
        assert report.to_dict()["missing_kernels"] == {key: [TARGET_PAIR]}

        same = compare_records(record_a, record_a)
        assert not same.missing_kernels and not same.new_kernels
        judged = {(v.scope, v.subject): v.verdict for v in report.verdicts}
        assert judged == {
            (v.scope, v.subject): v.verdict
            for v in same.verdicts if v.subject != TARGET_PAIR
        }
        text = compare_markdown(report)
        assert f"Kernels missing from candidate in {key} (not judged): {TARGET_PAIR}" in text
        assert f"Kernels new in candidate in {key} (not judged): vertex_move/renamed" in text


class TestInjectedSlowdown:
    @pytest.fixture()
    def slowed_record(self, monkeypatch):
        """Record a run with TARGET_KERNEL slowed via a sleep shim.

        The sleep wraps the kernel *body* so it lands inside
        ``Device.execute``'s wall timing — exactly where a real kernel
        slowdown would show up in the profiler.
        """
        original = Device.execute

        def slowed(self, name, cost, body, phase=None):
            if name == TARGET_KERNEL and phase == TARGET_PHASE:
                def slow_body():
                    time.sleep(SLOWDOWN_S)
                    return body()
                return original(self, name, cost, slow_body, phase)
            return original(self, name, cost, body, phase)

        monkeypatch.setattr(Device, "execute", slowed)
        return _quick_run(label="slowed")

    def test_flagged_with_workload_and_kernel(self, record_a, slowed_record):
        report = compare_records(record_a, slowed_record)
        assert report.has_regressions

        workload_hits = [
            v for v in report.regressions
            if v.scope == "workload" and v.subject == "runtime_s"
        ]
        assert workload_hits, "end-to-end runtime regression must flag"
        assert workload_hits[0].workload == "GSAP/low_low/200"

        kernel_hits = [
            v for v in report.regressions if v.scope == "kernel"
        ]
        assert TARGET_PAIR in {v.subject for v in kernel_hits}, (
            "the shimmed kernel must be attributed by phase/kernel"
        )
        target = next(v for v in kernel_hits if v.subject == TARGET_PAIR)
        lo, hi = target.comparison.ratio_ci
        assert lo > 1.0, "CI must exclude 'no change'"
        assert target.comparison.p_value <= 0.10
        # the human-readable verdict carries the interval
        assert "CI [" in target.describe()

    def test_cli_flags_regression_nonzero(
        self, record_a, slowed_record, tmp_path, capsys
    ):
        base = write_record(record_a, tmp_path / "base.json")
        cand = write_record(slowed_record, tmp_path / "cand.json")
        code = main([
            "perf", "compare", str(base), str(cand), "--fail-on-regression",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert TARGET_PAIR in out
        assert "regression" in out
        assert "CI [" in out


class TestTrajectory:
    def test_append_load_and_trend(self, record_a, record_b, tmp_path):
        path = tmp_path / "traj.json"
        assert load_trajectory(path)["entries"] == []  # absent -> empty
        append_trajectory(path, record_a, notes="first")
        append_trajectory(path, record_b)
        trajectory = load_trajectory(path)
        assert trajectory["schema"] == TRAJECTORY_SCHEMA
        entries = trajectory["entries"]
        assert len(entries) == 2
        assert entries[0]["label"] == "aa-left"
        assert entries[0]["notes"] == "first"

        dashboard = trend_markdown(trajectory)
        assert "GSAP/low_low/200" in dashboard
        assert "aa-left" in dashboard and "aa-right" in dashboard

    def test_append_rejects_invalid_record(self, tmp_path):
        with pytest.raises(BenchRecordError):
            append_trajectory(tmp_path / "t.json", {"schema": "nope"})


class TestEnvironmentFingerprint:
    def test_self_comparison_clean(self):
        env = environment_fingerprint()
        assert fingerprint_mismatches(env, env) == []

    def test_mismatch_reported(self):
        a = environment_fingerprint()
        b = dict(a, bench_scale="paper")
        warnings = fingerprint_mismatches(a, b)
        assert len(warnings) == 1
        assert "bench_scale" in warnings[0]

    def test_git_sha_not_a_comparability_key(self):
        a = environment_fingerprint()
        b = dict(a, git_sha="deadbeef0000")
        assert fingerprint_mismatches(a, b) == []


class TestCommittedArtifacts:
    """The repo ships a quick-scale baseline; it must stay schema-valid."""

    BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "perf_baseline_quick.json"
    TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"
    INCREMENTAL = REPO_ROOT / "BENCH_incremental.json"

    def test_baseline_validates(self):
        record = load_record(self.BASELINE)
        keys = {wl["key"] for wl in record["workloads"]}
        assert "GSAP/low_low/200" in keys
        assert record["repeats"] >= 3

    def test_trajectory_has_entries(self):
        doc = json.loads(self.TRAJECTORY.read_text())
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert len(doc["entries"]) >= 1
        assert "workloads" in doc["entries"][0]

    def test_incremental_bench_record_validates(self):
        record = load_record(self.INCREMENTAL)
        keys = {wl["key"] for wl in record["workloads"]}
        assert any("#incremental" in k for k in keys)
        assert any("#rebuild" in k for k in keys)
