"""Command-line interface: ``gsap`` (or ``python -m repro``).

Subcommands
-----------
``generate``
    Synthesize an SBPC-category graph and write edge list + ground truth.
``partition``
    Partition an edge-list file with GSAP or a baseline; report MDL/NMI.
``serve``
    Run the partitioning service: concurrent jobs over line-delimited
    JSON on TCP, with admission control, deadlines, a result cache and
    graceful degradation (see ``docs/serving.md``).
``bench``
    Run the benchmark matrix and print the paper's tables and figures.
``verify``
    Audit a saved result or run checkpoint offline: content digests plus
    the full blockmodel invariant audit (with ``--edges``).
``perf``
    The performance observatory: ``perf run`` records a repeat-k bench
    record, ``perf compare`` diffs two records with statistical gates
    (``--fail-on-regression`` for CI), ``perf trend`` renders the
    append-only trajectory dashboard.
``info``
    Print the dataset registry (paper Table 1) at the library's scales.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .bench import (
    BenchHarness,
    bench_config,
    fig8_markdown,
    fig9_markdown,
    fig10_markdown,
    fig11_markdown,
    full_matrix,
    gsap_only_sizes,
    make_partitioner,
    matrix_sizes,
    table1_markdown,
    table3_markdown,
    table4_markdown,
    to_csv,
)
from .config import SBPConfig
from .errors import CheckpointCorruptError, CheckpointError, IntegrityError
from .graph.datasets import SIZES, normalize_category
from .graph.generators import generate_category_graph
from .graph.io import (
    load_edge_list,
    load_truth_partition,
    save_edge_list,
    save_truth_partition,
)
from .logging_util import LOG_LEVELS, configure_logging
from .metrics import nmi


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="synthesize an SBPC-category graph")
    p.add_argument("--category", required=True, help="e.g. low_low, High-High")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list TSV path")
    p.add_argument("--truth-out", help="ground-truth TSV path")
    p.set_defaults(func=_cmd_generate)


def _cmd_generate(args: argparse.Namespace) -> int:
    category = normalize_category(args.category)
    overlap, variation = category.split("_")
    graph, truth = generate_category_graph(
        args.vertices, overlap, variation, seed=args.seed
    )
    save_edge_list(graph, args.out)
    if args.truth_out:
        save_truth_partition(truth, args.truth_out)
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"({int(truth.max()) + 1} planted blocks) to {args.out}"
    )
    return 0


def _add_partition(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("partition", help="partition an edge-list file")
    p.add_argument("edges", help="edge-list TSV (1-based ids)")
    p.add_argument("--truth", help="ground-truth TSV for NMI scoring")
    p.add_argument(
        "--algo",
        default="GSAP",
        choices=["GSAP", "uSAP", "I-SBP", "reference", "EDiSt"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the partition as TSV")
    p.add_argument("--zero-based", action="store_true", help="ids start at 0")
    p.add_argument(
        "--resume", metavar="DIR",
        help="resume a killed GSAP run from its checkpoint directory",
    )
    p.add_argument(
        "--checkpoint", metavar="DIR",
        help="write mid-run checkpoints into DIR (GSAP only)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="plateaus between checkpoints (default: every plateau when "
             "--checkpoint/--resume is given)",
    )
    p.add_argument(
        "--deadline-s", type=float, default=None, metavar="SECONDS",
        help="best-effort deadline: stop at the next plateau/sweep "
             "boundary once SECONDS have elapsed and return the best "
             "partition found so far (GSAP only)",
    )
    p.add_argument(
        "--fault-plan", metavar="FILE",
        help="JSON fault plan to inject into the simulated device "
             "(chaos testing)",
    )
    p.add_argument(
        "--dist-ranks", type=int, default=4, metavar="N",
        help="simulated compute nodes for --algo EDiSt (default: 4)",
    )
    p.add_argument(
        "--dist-fault-plan", metavar="FILE",
        help="JSON fault plan whose communication faults (msg_*, "
             "rank_crash) are injected into the simulated interconnect "
             "(EDiSt only)",
    )
    p.add_argument(
        "--dist-flight-dir", metavar="DIR",
        help="dump the distributed flight-recorder ring into DIR on "
             "every rank-crash recovery (EDiSt only)",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="audit blockmodel invariants during the run (GSAP only)",
    )
    p.add_argument(
        "--audit-every", type=int, default=0, metavar="N",
        help="integrity sites between audits (implies --audit)",
    )
    p.add_argument(
        "--repair", action="store_true",
        help="self-heal detected corruption instead of failing "
             "(implies --audit)",
    )
    p.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome/Perfetto trace of the run; for EDiSt this "
             "is a merged multi-lane trace with one pid per rank; "
             "enables observability",
    )
    p.add_argument(
        "--metrics-out", metavar="FILE",
        help="write run metrics in Prometheus text format (for EDiSt "
             "with per-rank dist_rank_* samples); enables observability",
    )
    p.add_argument(
        "--events-out", metavar="FILE",
        help="write spans + metrics as JSON lines (GSAP only); "
             "enables observability",
    )
    p.add_argument(
        "--run-report", metavar="FILE",
        help="write a run report (.json for machine-readable, anything "
             "else for Markdown)",
    )
    p.set_defaults(func=_cmd_partition)


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges, one_based=not args.zero_based)
    resilience_changes = {}
    if args.checkpoint_every:
        resilience_changes["checkpoint_every"] = args.checkpoint_every
    config = SBPConfig(seed=args.seed)
    if resilience_changes:
        config = config.replace(
            resilience=config.resilience.replace(**resilience_changes)
        )
    integrity_changes = {}
    if args.audit or args.audit_every or args.repair:
        integrity_changes["audit"] = True
    if args.audit_every:
        integrity_changes["audit_every"] = args.audit_every
    if args.repair:
        integrity_changes["repair"] = True
    if integrity_changes:
        config = config.replace(
            integrity=config.integrity.replace(**integrity_changes)
        )
    is_gsap = args.algo == "GSAP"
    is_edist = args.algo == "EDiSt"
    if integrity_changes and not is_gsap:
        print(
            f"--audit/--audit-every/--repair are only supported for GSAP, "
            f"not {args.algo}",
            file=sys.stderr,
        )
        return 2
    wants_obs = bool(args.trace_out or args.metrics_out or args.events_out)
    if wants_obs and not (is_gsap or is_edist):
        print(
            f"--trace-out/--metrics-out/--events-out are only supported "
            f"for GSAP and EDiSt, not {args.algo}",
            file=sys.stderr,
        )
        return 2
    if wants_obs or (args.run_report and (is_gsap or is_edist)):
        config = config.replace(
            observability=config.observability.replace(enabled=True)
        )
    if args.dist_fault_plan and not is_edist:
        print(
            f"--dist-fault-plan is only supported for EDiSt, not {args.algo}"
            f" (use --fault-plan for device faults)",
            file=sys.stderr,
        )
        return 2
    if args.dist_flight_dir and not is_edist:
        print(
            f"--dist-flight-dir is only supported for EDiSt, not {args.algo}",
            file=sys.stderr,
        )
        return 2
    if is_edist:
        from .baselines import EDiStPartitioner
        from .resilience import FaultPlan

        dist_plan = None
        if args.dist_fault_plan:
            dist_plan = FaultPlan.from_json_file(args.dist_fault_plan)
            print(
                f"installed comm fault plan with {len(dist_plan)} fault(s) "
                f"over {args.dist_ranks} ranks"
            )
        partitioner = EDiStPartitioner(
            config, num_ranks=args.dist_ranks, fault_plan=dist_plan,
            flight_dir=args.dist_flight_dir,
        )
    else:
        partitioner = make_partitioner(args.algo, config)
    if (args.resume or args.checkpoint) and not is_gsap:
        print(
            f"--resume/--checkpoint are only supported for GSAP, not {args.algo}",
            file=sys.stderr,
        )
        return 2
    if args.deadline_s is not None and not is_gsap:
        print(
            f"--deadline-s is only supported for GSAP, not {args.algo}",
            file=sys.stderr,
        )
        return 2
    cancel = None
    if args.deadline_s is not None:
        from .serve import CancelToken

        cancel = CancelToken(args.deadline_s, checkpoint_dir=args.checkpoint)
    if args.fault_plan and is_edist:
        print(
            "--fault-plan targets the simulated device; use "
            "--dist-fault-plan to inject faults into EDiSt's interconnect",
            file=sys.stderr,
        )
        return 2
    if args.fault_plan:
        from .gpusim.device import get_default_device
        from .resilience import FaultPlan, install_fault_injector

        plan = FaultPlan.from_json_file(args.fault_plan)
        device = getattr(partitioner, "device", None) or get_default_device()
        install_fault_injector(device, plan)
        print(f"installed fault plan with {len(plan)} fault(s)")
    t0 = time.perf_counter()
    try:
        if is_gsap:
            result = partitioner.partition(
                graph, resume_from=args.resume,
                checkpoint_dir=args.checkpoint, cancel=cancel,
            )
        else:
            result = partitioner.partition(graph)
    except KeyboardInterrupt:
        # the partitioner already flushed a final checkpoint (when one
        # was configured) before re-raising; 130 = 128 + SIGINT.
        if args.checkpoint:
            print(
                f"\ninterrupted — resume with --resume {args.checkpoint}",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted (no --checkpoint; progress discarded)",
                  file=sys.stderr)
        return 130
    except CheckpointCorruptError as err:
        where = f" {err.path}" if err.path else ""
        print(
            f"checkpoint corrupt:{where}\n  {err}\n"
            f"  delete the damaged checkpoint (or point --resume elsewhere) "
            f"and rerun",
            file=sys.stderr,
        )
        return 1
    except IntegrityError as err:
        print(f"integrity failure: {err}", file=sys.stderr)
        for violation in err.violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    print(f"algorithm      : {result.algorithm}")
    print(f"vertices/edges : {graph.num_vertices} / {graph.num_edges}")
    print(f"blocks found   : {result.num_blocks}")
    print(f"description len: {result.mdl:.2f}")
    print(f"wall time      : {elapsed:.2f}s")
    if result.timed_out:
        print(
            f"deadline       : TIMED OUT after {args.deadline_s:g}s — "
            f"best partition found so far (not converged)"
        )
    elif result.cancelled is not None:
        print(f"cancelled      : {result.cancelled} (best-effort result)")
    if result.sim_time_s:
        print(f"sim device time: {result.sim_time_s * 1e3:.1f}ms")
    res = result.resilience
    if res.faults_absorbed or res.resumed_from or res.checkpoints_written:
        print(
            f"resilience     : {res.faults_absorbed} fault(s) absorbed, "
            f"{res.retries} retry(ies), {len(res.degradations)} "
            f"degradation(s), {res.checkpoints_written} checkpoint(s)"
        )
        if res.resumed_from:
            print(f"resumed from   : {res.resumed_from}")
        for event in res.degradations:
            print(f"  degraded: {event}")
    integ = result.integrity
    if integ.audits or integ.corruptions_detected:
        print(
            f"integrity      : {integ.audits} audit(s), "
            f"{integ.corruptions_detected} corruption(s) detected, "
            f"{integ.repairs} repair(s)"
        )
        for rung, n in sorted(integ.repairs_by_rung.items()):
            print(f"  repaired via {rung}: {n}")
    if result.dist:
        d = result.dist
        print(
            f"distributed    : {d['num_ranks']} rank(s), "
            f"{d['rounds']} round(s), {d['messages']} message(s), "
            f"{d['bytes_sent']} byte(s) on the wire"
        )
        absorbed = (
            d["dropped_frames"] + d["corrupt_frames"]
            + d["duplicate_frames"] + d["reorder_events"]
        )
        if absorbed or d["retransmits"]:
            print(
                f"  comm faults  : {d['dropped_frames']} dropped, "
                f"{d['corrupt_frames']} corrupt, "
                f"{d['duplicate_frames']} duplicated, "
                f"{d['reorder_events']} reordered -> "
                f"{d['retransmits']} retransmit(s)"
            )
        if d["crashes"]:
            print(
                f"  rank crashes : {d['crashes']} detected "
                f"(dead: {d['dead_ranks']}), {d['recoveries']} "
                f"recovery(ies), survivors: {d['live_ranks']}"
            )
    obs = getattr(partitioner, "obs", None)
    if obs is not None and obs.enabled:
        from .obs import write_chrome_trace, write_jsonl, write_prometheus

        lanes = getattr(partitioner, "lanes", None)
        if args.trace_out:
            if lanes is not None and lanes.rounds:
                from .obs import merge_rank_traces, write_merged_trace

                payload = merge_rank_traces(
                    lanes.tracers, driver=obs.tracer,
                    metadata={
                        "algorithm": result.algorithm, "seed": args.seed,
                    },
                )
                write_merged_trace(payload, args.trace_out)
                print(
                    f"merged rank-lane trace written to {args.trace_out} "
                    f"({lanes.num_ranks} rank lanes, "
                    f"{len(payload['traceEvents'])} events)"
                )
            else:
                write_chrome_trace(
                    obs.tracer, args.trace_out,
                    metadata={
                        "algorithm": result.algorithm, "seed": args.seed,
                    },
                )
                print(f"trace written to {args.trace_out} "
                      f"({len(obs.tracer.spans())} spans)")
        if args.metrics_out:
            write_prometheus(
                obs.metrics, args.metrics_out,
                labels={"algorithm": result.algorithm, "seed": args.seed},
            )
            if lanes is not None and lanes.rounds:
                from .obs import prometheus_text_multi

                page = prometheus_text_multi(
                    lanes.metrics, label="rank",
                    labels={"algorithm": result.algorithm},
                )
                with open(args.metrics_out, "a", encoding="utf-8") as fh:
                    fh.write(page)
            print(f"metrics written to {args.metrics_out}")
        if args.events_out:
            write_jsonl(args.events_out, obs.tracer, obs.metrics)
            print(f"events written to {args.events_out}")
    if args.run_report:
        from .obs import build_run_report, write_run_report

        profiler = getattr(getattr(partitioner, "device", None),
                           "profiler", None)
        report = build_run_report(
            result, obs=obs, profiler=profiler, dataset=args.edges,
        )
        write_run_report(report, args.run_report)
        print(f"run report written to {args.run_report}")
    if args.truth:
        truth = load_truth_partition(
            args.truth, num_vertices=graph.num_vertices,
            one_based=not args.zero_based,
        )
        print(f"NMI vs truth   : {nmi(result.partition, truth):.3f}")
    if args.out:
        save_truth_partition(
            result.partition, args.out, one_based=not args.zero_based
        )
        print(f"partition written to {args.out}")
    return 0


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the partitioning service (line-delimited JSON over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8437,
        help="TCP port (0 picks a free one; default: 8437)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="partitioning threads (default: 2)",
    )
    p.add_argument(
        "--max-queue-depth", type=int, default=16,
        help="admission limit on accepted-but-unfinished jobs",
    )
    p.add_argument(
        "--max-inflight-mb", type=float, default=None, metavar="MB",
        help="admission limit on summed graph work-bytes (default: off)",
    )
    p.add_argument(
        "--cache-capacity", type=int, default=32,
        help="result-cache entries (0 disables caching)",
    )
    p.add_argument(
        "--checkpoint-root", metavar="DIR",
        help="directory for per-job checkpoints and shutdown parking",
    )
    p.add_argument(
        "--default-deadline-s", type=float, default=None, metavar="SECONDS",
        help="deadline applied to requests that carry none",
    )
    p.add_argument(
        "--trace-dir", metavar="DIR",
        help="write one Chrome trace per terminal job into DIR",
    )
    p.add_argument(
        "--flight-dir", metavar="DIR",
        help="directory for flight-recorder dumps (crash/escalation/"
             "dump verb); default: <checkpoint-root>/flight when a "
             "checkpoint root is set",
    )
    p.add_argument(
        "--flight-capacity", type=int, default=2048, metavar="N",
        help="flight-recorder ring size (default: 2048)",
    )
    p.set_defaults(func=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import PartitionServer, ServeConfig, ServeFrontend

    flight_dir = args.flight_dir
    if flight_dir is None and args.checkpoint_root is not None:
        flight_dir = str(Path(args.checkpoint_root) / "flight")
    serve_config = ServeConfig(
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        max_inflight_bytes=(
            None if args.max_inflight_mb is None
            else int(args.max_inflight_mb * 1024 * 1024)
        ),
        cache_capacity=args.cache_capacity,
        checkpoint_root=args.checkpoint_root,
        default_deadline_s=args.default_deadline_s,
        trace_dir=args.trace_dir,
        flight_dir=flight_dir,
        flight_recorder_capacity=args.flight_capacity,
    )

    async def run() -> int:
        server = PartitionServer(serve_config)
        frontend = ServeFrontend(server, args.host, args.port)
        await frontend.start()
        print(f"serving on {frontend.host}:{frontend.port} "
              f"(workers={args.workers}, queue<={args.max_queue_depth})",
              flush=True)
        try:
            summary = await frontend.serve_until_shutdown()
            print(f"shutdown ({summary['mode']}): {summary['outcomes']}")
            return 0
        except (KeyboardInterrupt, asyncio.CancelledError):
            # Ctrl-C: stop fast but safe — checkpoint running jobs,
            # park queued ones, then report what went where.
            summary = await server.shutdown("checkpoint")
            server.dump_flight("interrupt")
            print(f"\ninterrupted — checkpoint shutdown: "
                  f"{summary['outcomes']}", file=sys.stderr)
            return 130
        finally:
            await frontend.close()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        # interrupt landed outside the server's own handling
        return 130


def _add_top(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a running gsap serve instance",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8437)
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: 2s)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (no screen clearing)",
    )
    p.set_defaults(func=_cmd_top)


def _cmd_top(args: argparse.Namespace) -> int:
    from .serve.top import run_top

    return run_top(
        args.host, args.port,
        interval_s=args.interval,
        iterations=1 if args.once else None,
        clear=not args.once,
    )


def _add_bench(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("bench", help="run the evaluation matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for CSV + markdown artifacts")
    p.add_argument(
        "--only",
        choices=["tables", "figures", "all"],
        default="all",
    )
    p.set_defaults(func=_cmd_bench)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.report import ReportOptions, build_report

    harness = BenchHarness(bench_config(args.seed))
    specs = full_matrix(("uSAP", "I-SBP", "GSAP"))
    total = len(specs)
    for i, spec in enumerate(specs, 1):
        print(f"[{i}/{total}] {spec.key} ...", flush=True)
        cell = harness.run_cell(spec)
        print(
            f"    {cell.runtime_s:.2f}s B={cell.result.num_blocks} "
            f"NMI={cell.nmi:.2f}"
        )
    options = ReportOptions(
        include_tables=args.only in ("tables", "all"),
        include_figures=args.only in ("figures", "all"),
    )
    report = build_report(harness, options)
    print()
    print(report)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.md").write_text(report + "\n", encoding="utf-8")
        (out / "cells.csv").write_text(to_csv(harness.cells()), encoding="utf-8")
        print(f"\nartifacts written to {out}/")
    return 0


def _add_stream(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "stream", help="streaming partition: edges arrive in stages"
    )
    p.add_argument("edges", help="edge-list TSV (1-based ids)")
    p.add_argument("--truth", help="ground-truth TSV for per-stage NMI")
    p.add_argument("--stages", type=int, default=4)
    p.add_argument(
        "--order", choices=["sample", "snowball"], default="sample",
        help="arrival order (GraphChallenge streaming variants)",
    )
    p.add_argument("--research-interval", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-based", action="store_true")
    p.set_defaults(func=_cmd_stream)


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.streaming import StreamingGSAP
    from .graph.streaming import edge_sample_stream, snowball_stream

    graph = load_edge_list(args.edges, one_based=not args.zero_based)
    truth = None
    if args.truth:
        truth = load_truth_partition(
            args.truth, num_vertices=graph.num_vertices,
            one_based=not args.zero_based,
        )
    stream_fn = (
        edge_sample_stream if args.order == "sample" else snowball_stream
    )
    partitioner = StreamingGSAP(
        SBPConfig(seed=args.seed), research_interval=args.research_interval
    )
    results = partitioner.partition_stream(
        stream_fn(graph, args.stages, seed=args.seed), graph.num_vertices
    )
    header = f"{'stage':>5} {'edges':>9} {'blocks':>7} {'time':>8}  mode"
    if truth is not None:
        header += "   NMI"
    print(header)
    for r in results:
        mode = "full" if r.full_search else "warm"
        line = (
            f"{r.stage:>5} {r.num_edges:>9} {r.num_blocks:>7} "
            f"{r.stage_time_s:>7.1f}s  {mode}"
        )
        if truth is not None:
            line += f"  {nmi(r.partition, truth):.3f}"
        print(line)
    return 0


def _add_analyze(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "analyze", help="summarise a partition against a graph"
    )
    p.add_argument("edges", help="edge-list TSV (1-based ids)")
    p.add_argument("partition", help="partition TSV (vertex, block)")
    p.add_argument("--truth", help="optional second partition to compare")
    p.add_argument("--top", type=int, default=10, help="blocks to detail")
    p.add_argument("--zero-based", action="store_true")
    p.set_defaults(func=_cmd_analyze)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (
        compare_partitions,
        comparison_markdown,
        summarize_partition,
        summary_markdown,
    )

    one_based = not args.zero_based
    graph = load_edge_list(args.edges, one_based=one_based)
    partition = load_truth_partition(
        args.partition, num_vertices=graph.num_vertices, one_based=one_based
    )
    summary = summarize_partition(graph, partition)
    print(summary_markdown(summary, top=args.top))
    if args.truth:
        truth = load_truth_partition(
            args.truth, num_vertices=graph.num_vertices, one_based=one_based
        )
        print("\ncomparison against the reference partition:\n")
        print(comparison_markdown(compare_partitions(partition, truth),
                                  top=args.top))
    return 0


def _add_hierarchy(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "hierarchy", help="nested (multi-scale) partitioning"
    )
    p.add_argument("edges", help="edge-list TSV (1-based ids)")
    p.add_argument("--max-levels", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-based", action="store_true")
    p.add_argument("--out-prefix", help="write each level as PREFIX_levelK.tsv")
    p.set_defaults(func=_cmd_hierarchy)


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .core.hierarchy import HierarchicalGSAP

    one_based = not args.zero_based
    graph = load_edge_list(args.edges, one_based=one_based)
    result = HierarchicalGSAP(
        SBPConfig(seed=args.seed), max_levels=args.max_levels
    ).partition(graph)
    print(f"hierarchy depth: {result.depth}")
    for level in result.levels:
        print(
            f"  level {level.level}: {level.num_input_nodes} nodes -> "
            f"{level.num_blocks} blocks (MDL {level.mdl:.1f})"
        )
    if args.out_prefix:
        for k in range(result.depth):
            path = f"{args.out_prefix}_level{k}.tsv"
            save_truth_partition(
                result.vertex_partition(k), path, one_based=one_based
            )
            print(f"  wrote {path}")
    return 0


def _add_verify(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "verify",
        help="audit a saved result or run checkpoint for corruption",
    )
    p.add_argument(
        "path", help="directory holding result.json or run.json"
    )
    p.add_argument(
        "--edges", metavar="FILE",
        help="edge-list TSV of the partitioned graph; enables the full "
             "blockmodel invariant audit on top of digest verification",
    )
    p.add_argument("--zero-based", action="store_true", help="ids start at 0")
    p.add_argument(
        "--mdl-tol", type=float, default=1e-6,
        help="relative tolerance for the recorded-vs-recomputed MDL check",
    )
    p.set_defaults(func=_cmd_verify)


def _cmd_verify(args: argparse.Namespace) -> int:
    import numpy as np

    from .checkpoint import (
        has_run_checkpoint,
        load_result,
        load_run_checkpoint,
    )
    from .types import INDEX_DTYPE

    directory = Path(args.path)
    targets = []  # (label, bmap, num_blocks, recorded mdl)
    try:
        if (directory / "result.json").exists():
            result = load_result(directory)
            print(
                f"saved result: {result.num_blocks} blocks, "
                f"MDL {result.mdl:.2f} — content digests OK"
            )
            targets.append(
                ("result", result.partition, result.num_blocks, result.mdl)
            )
        elif has_run_checkpoint(directory):
            ck = load_run_checkpoint(directory)
            print(
                f"run checkpoint: plateau {ck.plateau} — content digests OK"
            )
            for i, snap in enumerate(ck.snapshots):
                if snap is not None:
                    targets.append(
                        (f"snapshot[{i}]", snap.bmap, snap.num_blocks,
                         snap.mdl)
                    )
        else:
            print(
                f"{directory} holds neither result.json nor run.json",
                file=sys.stderr,
            )
            return 2
    except CheckpointCorruptError as err:
        print(f"CORRUPT: {err}", file=sys.stderr)
        return 1
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if not args.edges:
        print(
            "content digests verified; pass --edges to also run the "
            "blockmodel invariant audit"
        )
        return 0

    from .blockmodel.update import rebuild_blockmodel
    from .gpusim.device import A4000, Device
    from .integrity import audit_blockmodel

    graph = load_edge_list(args.edges, one_based=not args.zero_based)
    device = Device(A4000)
    status = 0
    for label, bmap, num_blocks, mdl in targets:
        bmap = np.asarray(bmap, dtype=INDEX_DTYPE)
        if len(bmap) != graph.num_vertices:
            print(
                f"{label}: FAIL — assignment covers {len(bmap)} vertices, "
                f"graph has {graph.num_vertices}",
                file=sys.stderr,
            )
            status = 1
            continue
        blockmodel = rebuild_blockmodel(device, graph, bmap, int(num_blocks))
        violations = audit_blockmodel(
            graph, bmap, blockmodel,
            mdl_tol=args.mdl_tol, tracked_mdl=float(mdl),
        )
        if violations:
            status = 1
            print(f"{label}: FAIL", file=sys.stderr)
            for v in violations:
                print(f"  {v.invariant}: {v.detail}", file=sys.stderr)
        else:
            print(f"{label}: OK ({int(num_blocks)} blocks, MDL {mdl:.2f})")
    if status == 0:
        print("all invariants hold")
    return status


def _add_perf(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "perf",
        help="performance observatory: record, compare, trend",
    )
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    run_p = perf_sub.add_parser(
        "run", help="run a workload suite repeat-k and write a bench record"
    )
    run_p.add_argument("--out", required=True, metavar="FILE",
                       help="bench record JSON output path")
    run_p.add_argument("--repeats", type=int, default=5,
                       help="retained repeats per workload (default 5)")
    run_p.add_argument("--warmup", type=int, default=1,
                       help="discarded warmup runs per workload (default 1)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--label", default="",
                       help="label recorded in the bench record")
    run_p.add_argument(
        "--suite", choices=["gate", "matrix"], default="gate",
        help="gate: the CI perf-gate workloads (default); matrix: the "
             "full bench matrix at the active scale",
    )
    run_p.add_argument(
        "--no-obs", action="store_true",
        help="run without observability (record carries no tracer data)",
    )
    run_p.add_argument(
        "--append-trajectory", metavar="FILE",
        help="append a condensed entry to this trajectory file",
    )
    run_p.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace of the last traced run",
    )
    run_p.set_defaults(func=_cmd_perf_run)

    cmp_p = perf_sub.add_parser(
        "compare", help="diff a candidate bench record against a baseline"
    )
    cmp_p.add_argument("baseline", help="baseline bench record JSON")
    cmp_p.add_argument("candidate", help="candidate bench record JSON")
    cmp_p.add_argument(
        "--tolerance", type=float, default=0.25,
        help="workload runtime ratio tolerance (default 0.25 = 25%%)",
    )
    cmp_p.add_argument(
        "--kernel-tolerance", type=float, default=0.50,
        help="per-kernel wall-time ratio tolerance (default 0.50)",
    )
    cmp_p.add_argument(
        "--alpha", type=float, default=0.10,
        help="Mann-Whitney significance level (default 0.10)",
    )
    cmp_p.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when any regression verdict fires",
    )
    cmp_p.add_argument(
        "--json-out", metavar="FILE",
        help="also write the machine-readable comparison report",
    )
    cmp_p.set_defaults(func=_cmd_perf_compare)

    trend_p = perf_sub.add_parser(
        "trend", help="render the bench trajectory as a Markdown dashboard"
    )
    trend_p.add_argument(
        "--trajectory", default="BENCH_trajectory.json", metavar="FILE",
        help="trajectory file (default BENCH_trajectory.json)",
    )
    trend_p.add_argument(
        "--metric", default="runtime_s",
        choices=["runtime_s", "sim_time_s", "blockmodel_update_s", "nmi",
                 "mdl"],
    )
    trend_p.add_argument("--out", metavar="FILE",
                         help="write the dashboard instead of printing")
    trend_p.set_defaults(func=_cmd_perf_trend)


def _cmd_perf_run(args: argparse.Namespace) -> int:
    from .bench.workloads import full_matrix
    from .perf import (
        PerfWorkload,
        append_trajectory,
        gate_workloads,
        run_workloads,
        write_record,
    )

    if args.suite == "matrix":
        workloads = [
            PerfWorkload(spec)
            for spec in full_matrix(("uSAP", "I-SBP", "GSAP"))
        ]
    else:
        workloads = gate_workloads()
    record = run_workloads(
        workloads,
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
        label=args.label,
        collect_obs=not args.no_obs,
        progress=lambda msg: print(f"  {msg}", flush=True),
        trace_out=args.trace_out,
    )
    write_record(record, args.out)
    print(
        f"bench record written to {args.out} "
        f"({len(record['workloads'])} workloads x {args.repeats} repeats)"
    )
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if args.append_trajectory:
        trajectory = append_trajectory(args.append_trajectory, record)
        print(
            f"trajectory {args.append_trajectory} now holds "
            f"{len(trajectory['entries'])} entr(y/ies)"
        )
    return 0


def _cmd_perf_compare(args: argparse.Namespace) -> int:
    import json as _json

    from .perf import (
        BenchRecordError,
        CompareOptions,
        compare_markdown,
        compare_records,
        load_record,
    )

    try:
        baseline = load_record(args.baseline)
        candidate = load_record(args.candidate)
    except BenchRecordError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    options = CompareOptions(
        tolerance=args.tolerance,
        kernel_tolerance=args.kernel_tolerance,
        alpha=args.alpha,
    )
    report = compare_records(baseline, candidate, options)
    print(compare_markdown(report), end="")
    for warning in report.environment_warnings:
        print(f"warning: cross-environment comparison: {warning}",
              file=sys.stderr)
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"comparison report written to {args.json_out}")
    if report.has_regressions and args.fail_on_regression:
        print(
            f"FAIL: {len(report.regressions)} perf regression(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_perf_trend(args: argparse.Namespace) -> int:
    from .perf import BenchRecordError, load_trajectory, trend_markdown

    try:
        trajectory = load_trajectory(args.trajectory)
    except BenchRecordError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    dashboard = trend_markdown(trajectory, metric=args.metric)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(dashboard, encoding="utf-8")
        print(f"trend dashboard written to {args.out}")
    else:
        print(dashboard, end="")
    return 0


def _add_dist(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "dist",
        help="distributed-runtime observatory: analyze merged rank traces",
    )
    dist_sub = p.add_subparsers(dest="dist_command", required=True)

    an_p = dist_sub.add_parser(
        "analyze",
        help="straggler/critical-path analysis of a merged rank-lane trace",
    )
    an_p.add_argument(
        "trace", help="merged multi-lane trace JSON (partition --algo "
                      "EDiSt --trace-out)",
    )
    an_p.add_argument(
        "--json-out", metavar="FILE",
        help="also write the analysis as JSON",
    )
    an_p.set_defaults(func=_cmd_dist_analyze)


def _cmd_dist_analyze(args: argparse.Namespace) -> int:
    import json

    from .dist import analysis_markdown, analyze_merged_trace
    from .obs import validate_merged_trace

    try:
        payload = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read trace {args.trace}: {err}", file=sys.stderr)
        return 1
    problems = validate_merged_trace(payload)
    if problems:
        print(f"trace {args.trace} is not a valid merged rank-lane trace:",
              file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    try:
        summary = analyze_merged_trace(payload)
    except ValueError as err:
        print(f"cannot analyze {args.trace}: {err}", file=sys.stderr)
        return 1
    print(analysis_markdown(summary), end="")
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"analysis written to {args.json_out}")
    return 0


def _add_info(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("info", help="print the dataset registry (Table 1)")
    p.set_defaults(func=_cmd_info)


def _cmd_info(args: argparse.Namespace) -> int:
    print(table1_markdown(SIZES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsap",
        description="GSAP reproduction: GPU-accelerated stochastic graph partitioning",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="shorthand for --log-level info",
    )
    parser.add_argument(
        "--log-level", choices=sorted(LOG_LEVELS), default=None,
        help="attach a stderr log handler at this level",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines (implies --log-level info unless set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_partition(sub)
    _add_serve(sub)
    _add_top(sub)
    _add_bench(sub)
    _add_stream(sub)
    _add_analyze(sub)
    _add_hierarchy(sub)
    _add_verify(sub)
    _add_perf(sub)
    _add_dist(sub)
    _add_info(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    level = args.log_level
    if level is None and (args.verbose or args.log_json):
        level = "info"
    if level is not None:
        configure_logging(level=level, json_lines=args.log_json)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
