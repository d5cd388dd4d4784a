"""Repo benchmark: one command for every workload, metric and check.

    python3 benchmarks/suite/run.py --workload gsap-lowlow-5k --seed 0
    python3 benchmarks/suite/run.py --seed 0             # all workloads
    python3 benchmarks/suite/run.py --workload serve-small --seed 0 --trace 1

Each workload runs in a fresh subprocess (``worker.py``), one after
another.  With ``--trace 0`` (the default) a run prints every
end-to-end metric of ``BENCHMARK.json`` with its unit; ``setup_s`` is
the median over three fresh processes (two that only set up, plus the
measured one).  With ``--trace 1`` it runs the separate traced pass and
prints every per-layer metric; the Chrome trace and ``layers.json`` land
in ``--trace-dir``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
#: wall-time allowance of one workload, safely under three minutes
DEADLINE_S = 170.0
SETUP_PROBES = 2


def _spawn(args: list, timeout_s: float) -> dict:
    """Run ``worker.py`` with *args*; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(SUITE / "worker.py"), *args,
           "--spawned-at", repr(time.time())]
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        timeout=max(1.0, timeout_s), check=False, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Path) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    if trace:
        return _spawn(base + ["--trace-dir", str(trace_dir)], remaining())
    setups = [
        _spawn(base + ["--setup-only"], min(60.0, remaining()))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    return finish_measured(_spawn(base, remaining()), setups)


def finish_measured(payload: dict, setups: list) -> dict:
    """Add ``setup_s`` (median over all set-ups) and ``peak_rss_mb``."""
    payload["setup_samples_s"] = list(setups) + [payload["setup_s"]]
    payload["metrics"]["setup_s"] = statistics.median(payload["setup_samples_s"])
    payload["metrics"]["peak_rss_mb"] = payload["peak_rss_mb"]
    return payload


def result_line(payload: dict, declared: list) -> dict:
    """The contract's result object: every *declared* metric with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in payload["metrics"]]
    if missing:
        raise RuntimeError(f"no value for {', '.join(missing)}: {payload['problems']}")
    return {
        "correct": payload["failed"] == 0 and not payload["problems"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {
            m["name"]: {"value": payload["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see benchmarks/suite/README.md)."
    )
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path,
                        help="--trace 1 writes <workload>-seed<N>/trace.json and "
                             "layers.json here (default: benchmarks/suite/out)")
    parser.add_argument("--out", type=Path,
                        help="also write the full result, with raw samples, here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {}
    for name in [args.workload] if args.workload else names:
        trace_dir = (args.trace_dir or SUITE / "out") / f"{name}-seed{args.seed}"
        try:
            payload = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), trace_dir)
            line = result_line(payload, declared)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for problem in payload["problems"]:
            print(f"check failed: {name}: {problem}", file=sys.stderr)
        for metric, entry in line["metrics"].items():
            print(f"{name:18s} {metric:36s} {entry['value']:>16.6g} {entry['unit']}")
        results[name] = {"payload": payload, "result": line}

    if len(results) == 1:
        (final,) = (r["result"] for r in results.values())
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results.values()),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": entry
                for name, r in results.items()
                for metric, entry in r["result"]["metrics"].items()
            },
        }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
