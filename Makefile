# Convenience targets for the GSAP reproduction.

.PHONY: install test test-fast test-oracles test-quality test-faults test-dist test-integrity serve-smoke obs-smoke bench bench-incremental bench-paper perf-baseline perf-check perf-trend examples clean

PERF_BASELINE := benchmarks/baselines/perf_baseline_quick.json
PERF_REPEATS  := 5

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

test-fast:
	PYTHONPATH=src pytest tests/ -m "not slow"

# byte-identity and ΔMDL oracles: golden partitions, dense-vs-batched
# deltas, Hastings correction, incremental-vs-rebuild blockmodels,
# EDiSt golden partitions at 1/2/4 ranks, reference/uSAP/I-SBP golden
# partitions, the shared CPU move and merge scoring vs the per-proposal
# rules, the blockmodel lookup table vs the sorted-key search
test-oracles:
	PYTHONPATH=src pytest -q tests/test_gsap_golden.py \
	  tests/test_blockmodel_delta.py tests/test_core_mh.py \
	  tests/test_blockmodel_incremental.py tests/test_baselines_edist.py \
	  tests/test_baselines_golden.py tests/test_baselines_moves.py \
	  tests/test_baselines_merge.py tests/test_blockmodel_csr.py \
	  tests/test_blockmodel_lookup.py

# seed-sweep quality gate: GSAP and ReferenceSBP on 16 seeds x the four
# categories at 300 vertices, mdl_ratio and NMI per category, each engine
# against its own samples in the committed BENCH_quality.json (one-sided
# Mann-Whitney p < 0.01 and Cliff's delta >= 0.33 in the worse direction
# fails); ~6 minutes, most of it the ReferenceSBP sweep
test-quality:
	PYTHONPATH=src python benchmarks/quality_gate.py check

test-faults:
	PYTHONPATH=src pytest tests/ -m faults

test-dist:
	PYTHONPATH=src pytest tests/ -m dist

test-integrity:
	PYTHONPATH=src pytest tests/test_integrity.py

# deterministic service load test: overload + faults + checkpoint
# shutdown; fails if any accepted job is lost or shutdown is unclean
serve-smoke:
	PYTHONPATH=src python benchmarks/bench_serve.py

# out-of-process flight-deck smoke: boot gsap serve, submit a traced
# job, poll status, conformance-check the live metrics scrape, replay
# a flight-recorder dump, drain
obs-smoke:
	PYTHONPATH=src python benchmarks/obs_smoke.py

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

bench-incremental:
	PYTHONPATH=src pytest benchmarks/bench_ablation_incremental.py --benchmark-only

bench-paper:
	GSAP_BENCH_SCALE=paper PYTHONPATH=src pytest benchmarks/ --benchmark-only

# record a fresh quick-scale baseline (commit the record + trajectory)
perf-baseline:
	PYTHONPATH=src python -m repro perf run --suite gate \
	  --repeats $(PERF_REPEATS) --warmup 1 --label quick-baseline \
	  --out $(PERF_BASELINE) --append-trajectory BENCH_trajectory.json

# compare a fresh run against the committed baseline (the CI perf gate)
perf-check:
	PYTHONPATH=src python -m repro perf run --suite gate \
	  --repeats $(PERF_REPEATS) --warmup 1 --label perf-check \
	  --out /tmp/gsap_perf_candidate.json
	PYTHONPATH=src python -m repro perf compare $(PERF_BASELINE) \
	  /tmp/gsap_perf_candidate.json --fail-on-regression

perf-trend:
	PYTHONPATH=src python -m repro perf trend

examples:
	python examples/quickstart.py
	python examples/community_detection.py
	python examples/hierarchical_communities.py
	python examples/streaming_partition.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
