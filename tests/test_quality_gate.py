"""The seed-sweep quality gate (``benchmarks/quality_gate.py``).

The sweep itself runs under ``make test-quality``; these tests pin the
committed record's shape and the gate's verdict rule on synthetic
samples, so a change to either shows up in the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph.datasets import CATEGORIES
from repro.perf.record import load_record

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "quality_gate", REPO_ROOT / "benchmarks" / "quality_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record(gate):
    return load_record(gate.RECORD)


def _samples(mdl_ratio, nmi):
    return {c: {"mdl_ratio": list(mdl_ratio), "nmi": list(nmi)}
            for c in CATEGORIES}


class TestCommittedRecord:
    def test_every_category_and_seed_for_gsap_and_the_anchor(self, gate, record):
        keys = {wl["key"] for wl in record["workloads"]}
        for algorithm in ("GSAP", "ReferenceSBP"):
            for category in CATEGORIES:
                assert f"{algorithm}/{category}/{gate.NUM_VERTICES}" in keys
        for wl in record["workloads"]:
            assert wl["seeds"] == list(gate.SEEDS)
            for metric in gate.METRICS:
                values = wl["quality"][metric]
                assert len(values) == len(gate.SEEDS)
                assert all(np.isfinite(values))

    def test_written_by_record_with_its_commit(self, record):
        # the gate's meaning depends on which code the distribution is of
        assert record["label"] == "quality-gate"
        assert record["environment"]["git_sha"]

    def test_thresholds_recorded_with_the_distribution(self, gate, record):
        assert record["gate"]["p_max"] == gate.P_MAX
        assert record["gate"]["delta_min"] == gate.DELTA_MIN
        assert record["gate"]["num_vertices"] == gate.NUM_VERTICES

    def test_record_passes_against_itself(self, gate, record):
        base = gate.baseline_samples(record)
        assert gate.report(gate.compare(base, base), log=lambda *_: None)

    def test_each_engine_is_gated_on_its_own_samples(
        self, gate, record, monkeypatch
    ):
        # check sweeps every engine and compares each sweep with that
        # engine's recorded samples, never with another engine's
        assert gate.ENGINES == ("GSAP", "ReferenceSBP")
        own = {a: gate.baseline_samples(record, a) for a in gate.ENGINES}
        assert all(set(s) == set(CATEGORIES) for s in own.values())
        assert own["GSAP"] != own["ReferenceSBP"]
        swept, compared = [], []
        compare = gate.compare

        def fake_sweep(algorithm, seeds, overrides):
            swept.append(algorithm)
            return own[algorithm]

        def spy(baseline, candidate):
            compared.append((baseline, candidate))
            return compare(baseline, candidate)

        monkeypatch.setattr(gate, "sweep", fake_sweep)
        monkeypatch.setattr(gate, "compare", spy)
        assert gate.main(["check"]) == 0
        assert swept == list(gate.ENGINES)
        assert compared == [(own[a], own[a]) for a in gate.ENGINES]

    @pytest.mark.parametrize("failing", ["GSAP", "ReferenceSBP"])
    def test_check_fails_when_either_engine_fails(
        self, gate, record, monkeypatch, failing
    ):
        def fake_sweep(algorithm, seeds, overrides):
            samples = gate.baseline_samples(record, algorithm)
            if algorithm == failing:
                samples = {c: {"mdl_ratio": [x + 1.0 for x in q["mdl_ratio"]],
                               "nmi": q["nmi"]}
                           for c, q in samples.items()}
            return samples

        monkeypatch.setattr(gate, "sweep", fake_sweep)
        assert gate.main(["check"]) == 1


class TestVerdictRule:
    rng = np.random.default_rng(0)
    base_ratio = 1.0 + 0.01 * rng.random(16)
    base_nmi = 0.8 + 0.1 * rng.random(16)

    def _verdicts(self, gate, ratio, nmi):
        return gate.compare(
            _samples(self.base_ratio, self.base_nmi), _samples(ratio, nmi)
        )

    def test_worse_mdl_ratio_fails(self, gate):
        verdicts = self._verdicts(gate, self.base_ratio + 0.01, self.base_nmi)
        failing = {(v["category"], v["metric"]) for v in verdicts if v["fail"]}
        assert failing == {(c, "mdl_ratio") for c in CATEGORIES}
        assert all(v["delta_worse"] == 1.0 for v in verdicts
                   if v["metric"] == "mdl_ratio")

    def test_worse_nmi_fails(self, gate):
        verdicts = self._verdicts(gate, self.base_ratio, self.base_nmi - 0.2)
        assert {v["metric"] for v in verdicts if v["fail"]} == {"nmi"}

    def test_better_samples_pass(self, gate):
        verdicts = self._verdicts(
            gate, self.base_ratio - 0.01, self.base_nmi + 0.2
        )
        assert not any(v["fail"] for v in verdicts)
        assert all(v["p_worse"] > 0.99 for v in verdicts)

    def test_a_few_worse_runs_pass(self, gate):
        # three worse seeds of sixteen: a small δ and a large p
        ratio = self.base_ratio.copy()
        ratio[:3] += 0.05
        (v,) = [v for v in self._verdicts(gate, ratio, self.base_nmi)
                if v["metric"] == "mdl_ratio" and v["category"] == "low_low"]
        assert 0 < v["delta_worse"] < gate.DELTA_MIN
        assert not v["fail"]


def test_known_worse_variants_are_config_fields(gate):
    for overrides in gate.WORSE_VARIANTS:
        config = gate.gate_config(0, **overrides)
        for name, value in overrides.items():
            assert getattr(config, name) == value
    assert gate.AA_SEED_OFFSET >= len(gate.SEEDS)  # A/A seeds are disjoint
