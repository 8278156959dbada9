"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``            simulate one workload under one design
- ``trace``          run with telemetry and export a Chrome/JSONL trace
- ``smt``            co-run two+ workloads on a shared uop cache
- ``sweep-capacity`` the paper's Fig. 3/4 capacity sweep
- ``sweep-policy``   the paper's Fig. 15-17 design comparison
- ``table1``         render the simulated configuration (paper Table I)
- ``table2``         render the workload suite (paper Table II)
- ``workloads``      list the available workload profiles
- ``lint``           run the simlint determinism/correctness linter
- ``bench``          simulator performance baseline (normal vs fast mode)
- ``fuzz``           differential-oracle fuzzing of the uop cache designs
- ``serve``          run the crash-safe simulation job service (HTTP/JSON)
- ``chaos``          fault-injection harness proving crash-safe recovery
- ``trace-pack``     pack an engine-built trace into a .uoptrace file
- ``trace-info``     integrity-check and summarize a packed trace file

Workload-producing commands take ``--engine`` / ``--engine-params`` to
select among the registered workload engines (synthetic, replay, phased,
adversarial); see ``repro.workloads.engine``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

from .analysis.charts import render_grouped_bars
from .analysis.report import render_result
from .analysis.tables import render_table, render_table1, render_table2
from .common.config import (
    POLICY_LABELS,
    SimulatorConfig,
    TelemetryConfig,
    policy_config,
)
from .core.experiment import (
    CAPACITY_SWEEP,
    DEFAULT_SEED,
    run_capacity_sweep,
    run_policy_sweep,
    workload_trace,
)
from .bench.cli import add_bench_arguments, run_bench_command
from .common.errors import ConfigError, ReproError
from .core.simulator import Simulator
from .lint.cli import add_lint_arguments, run_lint
from .oracle.cli import add_fuzz_arguments, run_fuzz
from .service.cli import (
    add_chaos_arguments,
    add_serve_arguments,
    run_chaos_command,
    run_serve,
)
from .runner.executor import RunnerConfig
from .runner.job import JobSpec, execute_job
from .core.smt import simulate_smt
from .telemetry import (
    EVENT_CATEGORIES,
    ChromeTraceSink,
    JsonlSink,
    TelemetryHub,
)
from .workloads.cli import (
    add_engine_arguments,
    add_trace_info_arguments,
    add_trace_pack_arguments,
    engine_params_from_args,
    run_trace_info,
    run_trace_pack,
)
from .workloads.suite import (
    PAPER_BRANCH_MPKI,
    WORKLOAD_NAMES,
    get_profile,
)


def _build_config(args) -> SimulatorConfig:
    config = policy_config(args.design, args.capacity,
                           getattr(args, "max_entries", 2))
    return dataclasses.replace(config, warmup_instructions=args.warmup)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", default="baseline",
                        choices=list(POLICY_LABELS),
                        help="uop cache design (default: baseline)")
    parser.add_argument("--capacity", type=int, default=2048,
                        help="uop cache capacity in uops (default: 2048)")
    parser.add_argument("--instructions", type=int, default=100_000,
                        help="trace length (default: 100000)")
    parser.add_argument("--warmup", type=int, default=0,
                        help="warmup instructions excluded from metrics")
    parser.add_argument("--max-entries", type=int, default=2,
                        help="max compacted entries per line (default: 2)")
    _add_seed(parser)


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"trace generation seed (default: {DEFAULT_SEED})")


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1 = serial)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds "
                             "(enforced when --jobs > 1)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per failing job before quarantine "
                             "(default: 2)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="journal completed jobs here (crash-safe)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the checkpoint journal, "
                             "re-running only missing jobs")
    parser.add_argument("--telemetry", action="store_true",
                        help="count telemetry events per job (journaled "
                             "in the checkpoint results)")


def _runner_from_args(args) -> RunnerConfig:
    return RunnerConfig(jobs=args.jobs, timeout_seconds=args.timeout,
                        retries=args.retries,
                        checkpoint_dir=args.checkpoint_dir,
                        resume=args.resume)


def _finish_sweep(sweep) -> int:
    """Print the runner's failure report; exit nonzero on quarantined jobs."""
    report = sweep.report
    if report is None:
        return 0
    if report.resumed or report.retried or report.quarantined:
        print(report.describe(), file=sys.stderr)
    return 0 if report.ok else 1


def _engine_trace(args, workload: str):
    return workload_trace(workload, args.instructions, seed=args.seed,
                          engine=args.engine,
                          engine_params=engine_params_from_args(args))


def _cmd_run(args) -> int:
    spec = JobSpec(workload=args.workload, design=args.design,
                   capacity_uops=args.capacity,
                   max_entries_per_line=args.max_entries,
                   num_instructions=args.instructions,
                   warmup_instructions=args.warmup, seed=args.seed,
                   engine=args.engine,
                   engine_params=engine_params_from_args(args))
    result = execute_job(spec)
    baseline = None
    if args.compare_baseline and args.design != "baseline":
        # replace() keeps the old label, so name the baseline explicitly.
        baseline = execute_job(dataclasses.replace(
            spec, design="baseline", label="baseline"))
    print(render_result(result, baseline))
    return 0


def _parse_event_categories(value: str) -> Sequence[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        if name not in EVENT_CATEGORIES:
            raise ConfigError(
                f"unknown event category {name!r}; "
                f"choose from {', '.join(EVENT_CATEGORIES)}")
    return tuple(names) or EVENT_CATEGORIES


def _cmd_trace(args) -> int:
    categories = _parse_event_categories(args.events)
    trace = _engine_trace(args, args.workload)
    config = dataclasses.replace(
        _build_config(args),
        telemetry=TelemetryConfig(enabled=True, events=tuple(categories),
                                  interval_cycles=args.interval))
    hub = TelemetryHub.from_config(config.telemetry)
    if args.format == "chrome":
        hub.add_sink(ChromeTraceSink(args.out))
    else:
        hub.add_sink(JsonlSink(args.out))
    result = Simulator(trace, config, args.design, telemetry=hub).run()
    hub.close()
    print(render_result(result))
    print()
    total = sum(hub.summary().values())
    print(f"telemetry: {total} events "
          f"({', '.join(sorted(categories))}) -> {args.out}")
    for kind, count in sorted(hub.summary().items()):
        print(f"  {kind:<18s} {count}")
    return 0


def _cmd_smt(args) -> int:
    traces = [_engine_trace(args, name) for name in args.workloads]
    config = _build_config(args)
    result = simulate_smt(traces, config, args.design)
    print(f"SMT co-run of {', '.join(args.workloads)} "
          f"under {args.design} ({args.capacity} uops)\n")
    for thread_result in result.per_thread:
        print(render_result(thread_result))
        print()
    summary = result.summary()
    print(f"aggregate UPC:         {summary['aggregate_upc']:.3f}")
    print(f"aggregate fetch ratio: {summary['aggregate_fetch_ratio']:.3f}")
    return 0


def _parse_workloads(value: Optional[str]) -> Sequence[str]:
    if not value:
        return WORKLOAD_NAMES
    names = [name.strip() for name in value.split(",") if name.strip()]
    for name in names:
        get_profile(name)   # raises on unknown names
    return names


def _cmd_sweep_capacity(args) -> int:
    workloads = _parse_workloads(args.workloads)
    sweep = run_capacity_sweep(
        workloads=workloads, capacities=CAPACITY_SWEEP,
        num_instructions=args.instructions,
        warmup_instructions=args.warmup,
        seed=args.seed, runner=_runner_from_args(args),
        telemetry=args.telemetry,
        engine=args.engine, engine_params=engine_params_from_args(args),
        progress=(lambda line: print("  " + line, file=sys.stderr))
        if args.verbose else None)
    print(render_table(
        sweep.normalized(lambda r: r.upc, "OC_2K", skip_missing=True),
        title="UPC normalized to 2K"))
    print()
    print(render_table(
        sweep.normalized(lambda r: r.decoder_power, "OC_2K",
                         skip_missing=True),
        title="Decoder power normalized to 2K"))
    print()
    print(render_table(
        sweep.normalized(lambda r: r.oc_fetch_ratio, "OC_2K",
                         skip_missing=True),
        title="OC fetch ratio normalized to 2K"))
    return _finish_sweep(sweep)


def _cmd_sweep_policy(args) -> int:
    workloads = _parse_workloads(args.workloads)
    sweep = run_policy_sweep(
        workloads=workloads, capacity_uops=args.capacity,
        max_entries_per_line=args.max_entries,
        num_instructions=args.instructions,
        warmup_instructions=args.warmup,
        seed=args.seed, runner=_runner_from_args(args),
        telemetry=args.telemetry,
        engine=args.engine, engine_params=engine_params_from_args(args),
        progress=(lambda line: print("  " + line, file=sys.stderr))
        if args.verbose else None)
    improvement = sweep.improvement_percent(lambda r: r.upc, "baseline",
                                            skip_missing=True)
    print(render_table(improvement, title="% UPC improvement over baseline",
                       fmt="{:+.2f}", column_order=list(POLICY_LABELS)))
    print()
    normalized_fetch = sweep.normalized(
        lambda r: r.oc_fetch_ratio, "baseline", skip_missing=True)
    if args.chart:
        print(render_grouped_bars(
            normalized_fetch, title="OC fetch ratio normalized to baseline",
            column_order=list(POLICY_LABELS)))
    else:
        print(render_table(
            normalized_fetch, title="OC fetch ratio normalized to baseline",
            column_order=list(POLICY_LABELS)))
    return _finish_sweep(sweep)


def _cmd_table1(args) -> int:
    config = policy_config(args.design, args.capacity)
    print(render_table1(config))
    return 0


def _cmd_table2(args) -> int:
    measured = None
    if args.measure:
        measured = {}
        for name in WORKLOAD_NAMES:
            trace = workload_trace(name, args.instructions, seed=args.seed)
            config = policy_config("baseline", 2048)
            measured[name] = Simulator(trace, config, "b").run().branch_mpki
    print(render_table2(measured))
    return 0


def _cmd_workloads(args) -> int:
    for name in WORKLOAD_NAMES:
        profile = get_profile(name)
        print(f"{name:<14s} {profile.num_functions:4d} functions, "
              f"paper MPKI {PAPER_BRANCH_MPKI[name]:5.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Uop cache utilization reproduction (MICRO 2020)")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="simulate one workload under one design")
    run_parser.add_argument("workload", choices=list(WORKLOAD_NAMES))
    _add_common(run_parser)
    add_engine_arguments(run_parser)
    run_parser.add_argument("--compare-baseline", action="store_true",
                            help="also run the baseline and show deltas")
    run_parser.set_defaults(func=_cmd_run)

    trace_parser = commands.add_parser(
        "trace", help="run with telemetry, export Chrome/JSONL trace")
    trace_parser.add_argument("workload", choices=list(WORKLOAD_NAMES))
    _add_common(trace_parser)
    add_engine_arguments(trace_parser)
    trace_parser.add_argument("--out", default="trace.json",
                              help="output path (default: trace.json)")
    trace_parser.add_argument("--format", default="chrome",
                              choices=("chrome", "jsonl"),
                              help="chrome trace_event JSON (Perfetto) or "
                                   "JSONL event log (default: chrome)")
    trace_parser.add_argument("--events",
                              default=",".join(EVENT_CATEGORIES),
                              help="comma-separated event categories "
                                   f"(default: {','.join(EVENT_CATEGORIES)})")
    trace_parser.add_argument("--interval", type=int, default=1024,
                              help="throughput sample width in cycles "
                                   "(default: 1024)")
    trace_parser.set_defaults(func=_cmd_trace)

    smt_parser = commands.add_parser(
        "smt", help="co-run 2+ workloads on a shared uop cache")
    smt_parser.add_argument("workloads", nargs="+",
                            choices=list(WORKLOAD_NAMES))
    _add_common(smt_parser)
    add_engine_arguments(smt_parser)
    smt_parser.set_defaults(func=_cmd_smt)

    capacity_parser = commands.add_parser(
        "sweep-capacity", help="Fig. 3/4 capacity sweep")
    capacity_parser.add_argument("--workloads", default="",
                                 help="comma-separated subset")
    capacity_parser.add_argument("--instructions", type=int, default=100_000)
    capacity_parser.add_argument("--warmup", type=int, default=20_000)
    capacity_parser.add_argument("--verbose", action="store_true")
    _add_seed(capacity_parser)
    _add_runner_flags(capacity_parser)
    add_engine_arguments(capacity_parser)
    capacity_parser.set_defaults(func=_cmd_sweep_capacity)

    policy_parser = commands.add_parser(
        "sweep-policy", help="Fig. 15-17 design comparison")
    policy_parser.add_argument("--workloads", default="",
                               help="comma-separated subset")
    policy_parser.add_argument("--capacity", type=int, default=2048)
    policy_parser.add_argument("--max-entries", type=int, default=2)
    policy_parser.add_argument("--instructions", type=int, default=100_000)
    policy_parser.add_argument("--warmup", type=int, default=20_000)
    policy_parser.add_argument("--verbose", action="store_true")
    policy_parser.add_argument("--chart", action="store_true",
                               help="render bars instead of a table")
    _add_seed(policy_parser)
    _add_runner_flags(policy_parser)
    add_engine_arguments(policy_parser)
    policy_parser.set_defaults(func=_cmd_sweep_policy)

    table1_parser = commands.add_parser(
        "table1", help="render the simulated configuration")
    table1_parser.add_argument("--design", default="baseline",
                               choices=list(POLICY_LABELS))
    table1_parser.add_argument("--capacity", type=int, default=2048)
    table1_parser.set_defaults(func=_cmd_table1)

    table2_parser = commands.add_parser(
        "table2", help="render the workload suite")
    table2_parser.add_argument("--measure", action="store_true",
                               help="also measure branch MPKI (slow)")
    table2_parser.add_argument("--instructions", type=int, default=50_000)
    _add_seed(table2_parser)
    table2_parser.set_defaults(func=_cmd_table2)

    workloads_parser = commands.add_parser(
        "workloads", help="list available workloads")
    workloads_parser.set_defaults(func=_cmd_workloads)

    lint_parser = commands.add_parser(
        "lint", help="run the simlint determinism/correctness linter")
    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=run_lint)

    bench_parser = commands.add_parser(
        "bench", help="simulator performance baseline "
                      "(normal vs counters-only fast mode)")
    add_bench_arguments(bench_parser)
    bench_parser.set_defaults(func=run_bench_command)

    fuzz_parser = commands.add_parser(
        "fuzz", help="differential-oracle fuzzing of the uop cache designs")
    add_fuzz_arguments(fuzz_parser)
    fuzz_parser.set_defaults(func=run_fuzz)

    serve_parser = commands.add_parser(
        "serve", help="run the crash-safe simulation job service")
    add_serve_arguments(serve_parser)
    serve_parser.set_defaults(func=run_serve)

    chaos_parser = commands.add_parser(
        "chaos", help="chaos-test the job service: inject faults, verify "
                      "byte-identical recovery")
    add_chaos_arguments(chaos_parser)
    chaos_parser.set_defaults(func=run_chaos_command)

    pack_parser = commands.add_parser(
        "trace-pack", help="pack an engine-built trace into a "
                           "compact .uoptrace file")
    add_trace_pack_arguments(pack_parser)
    pack_parser.set_defaults(func=run_trace_pack)

    info_parser = commands.add_parser(
        "trace-info", help="integrity-check and summarize a packed "
                           ".uoptrace file")
    add_trace_info_arguments(info_parser)
    info_parser.set_defaults(func=run_trace_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # Unwritable --out / --checkpoint-dir and similar: one-line
        # diagnostic, no traceback (scripted callers key off exit code 2).
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
