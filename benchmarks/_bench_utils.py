"""Helpers shared by the benchmark files.

Besides the pytest-benchmark shim, this module hosts the shared
bench-record emitters: every ablation benchmark that used to dump an
ad-hoc ``BENCH_*.json`` now builds a schema-valid
``gsap-bench-record/1`` document through :func:`write_bench_record`,
so historical and future bench files are machine-comparable with
``gsap perf compare`` and appendable to the bench trajectory.
"""

from pathlib import Path

from repro.perf.record import assert_valid, new_record, new_workload

#: repository root — benchmark records land next to README.md
REPO_ROOT = Path(__file__).resolve().parent.parent


def pedantic_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing.

    SBP runs are seconds-to-minutes long; statistical repetition happens
    across dataset cells, not repeated identical runs.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def ablation_workload(
    key,
    *,
    runtime_s,
    algorithm="GSAP",
    category="",
    num_vertices=0,
    num_edges=0,
    variant="",
    sim_time_s=None,
    phases=None,
    quality=None,
):
    """One schema-valid workload entry from ablation measurements.

    ``runtime_s`` (and every other sample family) is a list with one
    entry per repeat — ablations that measure once pass a one-element
    list, keeping the raw-samples contract of the schema.
    """
    wl = new_workload(
        key=key, algorithm=algorithm, category=category,
        num_vertices=num_vertices, num_edges=num_edges, variant=variant,
    )
    wl["samples"]["runtime_s"] = [float(v) for v in runtime_s]
    if sim_time_s is not None:
        wl["samples"]["sim_time_s"] = [float(v) for v in sim_time_s]
    else:
        del wl["samples"]["sim_time_s"]
    if phases:
        wl["phases"] = {
            name: [float(v) for v in values]
            for name, values in phases.items()
        }
    if quality:
        wl["quality"] = {
            name: [float(v) for v in values]
            for name, values in quality.items()
        }
    return wl


def write_bench_record(
    name, workloads, *, seed=0, repeats=1, label="", extras=None,
    scaling=None, filename=None
):
    """Validate and write ``BENCH_<name>.json`` at the repository root.

    ``extras`` lands under a free-form ``extras`` key (ratios, comm
    volumes — whatever the ablation's headline is); ``scaling`` is the
    schema-checked strong/weak-scaling section (``dimension`` +
    ascending ``points``); the rest of the document is schema-checked
    before writing so no emitter can drift back to an ad-hoc format.
    """
    import json

    record = new_record(label=label or name, seed=seed, repeats=repeats,
                        warmup=0)
    record["workloads"] = list(workloads)
    if extras:
        record["extras"] = dict(extras)
    if scaling:
        record["scaling"] = dict(scaling)
    assert_valid(record, source=f"BENCH_{name}.json")
    out = REPO_ROOT / (filename or f"BENCH_{name}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return out
