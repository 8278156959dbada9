"""perfbench: end-to-end and per-layer benchmark of the simulator.

Run from the repository root.

Suite mode prints every metric of every workload and writes a JSON result::

    python3 perfbench/run.py [--seed 7] [--repeats 3] [--workloads a,b]
                             [--quick] [--trace] [--out perfbench/out]

Single-run mode runs one workload once and prints, as its last line, one
JSON object with the ``BENCHMARK.json`` metrics (end-to-end, or per-layer
with ``--trace 1``)::

    python3 perfbench/run.py --workload policy-sweep --seed 7 \\
        --seconds 15 --trace 0

Every run starts the workload in a fresh process (``child.py``), so the
trace, program-image and trace-view caches start empty.  Exit status is 2
when the benchmark cannot run at all.  Otherwise single-run mode exits 0 and
reports correctness in its result line, and suite mode exits 1 when any
output fails its correctness check.

Timings are best-of-k.  A run repeats identical units of work until its
time is up, and each job's time is its best (minimum) over the units;
``setup_s`` is the best of :data:`SETUP_STARTS` process starts.  Shared
VMs switch between a fast and a ~1.7x slower state every few seconds (seen
on a 2-vCPU one), and interference of that kind only ever adds time, so the
minimum removes it while a change to the program moves every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from child import SCALE_DIVISORS, WORKLOADS  # noqa: E402

#: Process starts whose best set-up time is ``setup_s`` (the measured
#: run's own start is the last of them).
SETUP_STARTS = 9
#: A run that takes longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 170.0

#: Metrics printed and compared beyond the BENCHMARK.json ones (every
#: workload must report every BENCHMARK.json metric; these exist only where
#: the workload has them): unit, better, bound.
EXTRA_METRICS = {
    "job_p50_s": ("s", "lower", 0.10),
    "hit_p50_ms": ("ms", "lower", 0.10),
    "hit_p90_ms": ("ms", "lower", 0.10),
    "hit_p99_ms": ("ms", "lower", 0.10),
    "fail_ratio": ("ratio", "lower", 0.0),
}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def metric_specs(benchmark: Dict[str, Any]
                 ) -> Dict[str, Tuple[str, str, float]]:
    """``name -> (unit, better, bound)`` for every end-to-end metric."""
    specs = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in benchmark["end_to_end"]}
    specs.update(EXTRA_METRICS)
    return specs


# --------------------------------------------------------------- statistics

def tail(samples: List[float], quantile: float) -> Optional[float]:
    """The ``quantile`` of ``samples``, or None unless at least ten samples
    lie beyond it (a tail from fewer samples is noise)."""
    if round(len(samples) * (1.0 - quantile), 6) < 10:
        return None
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(quantile * 100) - 1]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


# ------------------------------------------------------------------ one run

def _start(command: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a child and wait for READY; returns (process, set-up seconds).

    The child leads its own process group, which also holds the service's
    server and pool workers, so :func:`_stop_group` reaps all of them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        ready, _, _ = select.select([process.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        line = process.stdout.readline() if ready else ""
    except BaseException:
        _stop_group(process)
        raise
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _stop_group(process)
        raise RuntimeError(f"{command[3]} did not start "
                           f"(exit {process.returncode})")
    return process, setup


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass     # the whole group has already exited
    process.wait()


def _finish(process: subprocess.Popen) -> str:
    """Wait for a started child; returns its standard output."""
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"run exceeded {CHILD_TIMEOUT_S:g}s") from None
    finally:
        _stop_group(process)
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited {process.returncode}")
    return output


def run_once(workload: str, seed: int, seconds: float, scale: str,
             trace: int, out: str) -> Dict[str, Any]:
    """One measured run; returns its record (metrics, checks, layers)."""
    def command(setup_only: bool) -> List[str]:
        return [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--scale", scale,
                "--trace", str(trace), "--out", out] + \
            (["--setup-only"] if setup_only else [])

    def setup_start() -> float:
        process, setup = _start(command(setup_only=True))
        _finish(process)
        return setup

    # Set-up-only starts go half before and half after the measured run,
    # so one slow stretch of the host cannot cover all of them.
    probes = 0 if trace else SETUP_STARTS - 1
    setups = [setup_start() for _ in range(probes // 2)]
    process, setup = _start(command(setup_only=False))
    setups.append(setup)
    lines = _finish(process).strip().splitlines()
    setups += [setup_start() for _ in range(probes - probes // 2)]
    if not lines:
        raise RuntimeError("workload process printed no result")
    raw = json.loads(lines[-1])
    record = {"workload": workload, "seed": seed, "trace": trace,
              "units": raw["units"],
              "unit_wall_s": sum(raw["unit_s"]) / max(1, raw["units"]),
              "attempted": raw["attempted"], "failed": raw["failed"],
              "correct": raw["failed"] == 0, "errors": raw["errors"],
              "digests": raw["digests"]}
    if trace:
        record["layers"] = layer_metrics(raw)
    else:
        record["metrics"] = end_to_end_metrics(raw, setups)
    return record


def end_to_end_metrics(raw: Dict[str, Any], setups: List[float]
                       ) -> Dict[str, float]:
    """Metrics from one run's raw samples: each job's best time over the
    units, summed for throughput; all hit round trips for the hit path."""
    best = [min(walls) for walls in raw["jobs"].values()]
    if not best:
        raise RuntimeError("no job completed")
    metrics = {
        "setup_s": min(setups),
        "inst_per_s": raw["job_instructions"] * len(best) / sum(best),
        "job_p50_s": statistics.median(best),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fail_ratio": raw["failed"] / max(1, raw["attempted"]),
    }
    # Hits keep every sample: their tail is the wait behind a miss on the
    # service's batch lock, which is behaviour, not host noise.
    hits = [seconds * 1e3 for seconds in raw.get("hits", [])]
    if hits:
        metrics["hit_p50_ms"] = statistics.median(hits)
        for name, quantile in (("hit_p90_ms", 0.90), ("hit_p99_ms", 0.99)):
            value = tail(hits, quantile)
            if value is not None:
                metrics[name] = value
    return metrics


def layer_metrics(raw: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer calls, self time and ratios, per unit of work (one cold
    sweep or table pass, or one service round), so runs that fit a
    different number of units in the time box stay comparable."""
    from tracer import RATIOS
    units = max(1, raw["units"])
    layers = raw["layers"]
    metrics: Dict[str, float] = {}
    for name, row in sorted(layers.items()):
        if row["calls"]:
            metrics[f"{name}.calls"] = row["calls"] / units
        metrics[f"{name}.self_s"] = row["self_s"] / units
        if name in RATIOS and row["calls"]:
            metrics[RATIOS[name]] = row["positives"] / row["calls"]
    if "runner.execute_job" in layers:
        metrics["runner.overhead_s"] = (
            sum(raw["unit_s"]) - layers["runner.execute_job"]["total_s"]) \
            / units
    if "service.execute" in layers:
        metrics["service.http_glue_s"] = (
            raw["round_trips_s"] - layers["service.execute"]["total_s"]) \
            / units
    return metrics


# -------------------------------------------------------------- single run

def single_run(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    scale = "quick" if args.quick else "full"
    try:
        record = run_once(args.workload, args.seed, args.seconds, scale,
                          args.trace, args.out)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    for error in record["errors"]:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    values = record["layers"] if args.trace else record["metrics"]
    missing = [m["name"] for m in benchmark[section]
               if m["name"] not in values]
    if missing:
        print(f"perfbench: {args.workload} did not report "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in benchmark[section]}}))
    return 0     # the result line carries the verdict


# --------------------------------------------------------------- suite mode

def suite(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    workloads = [name.strip() for name in args.workloads.split(",")
                 if name.strip()]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        print(f"perfbench: unknown workload(s) {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    scale = "quick" if args.quick else "full"
    runs: List[Dict[str, Any]] = []
    for repeat in range(args.repeats):
        # Interleave: each repeat starts one workload later.
        shift = repeat % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            for trace in ((0, 1) if args.trace else (0,)):
                try:
                    record = run_once(workload, args.seed, args.seconds,
                                      scale, trace, args.out)
                except RuntimeError as error:
                    print(f"perfbench: {workload}: {error}", file=sys.stderr)
                    return 2
                record["repeat"] = repeat
                runs.append(record)
                for error in record["errors"]:
                    print(f"perfbench: {workload}: {error}",
                          file=sys.stderr)
    result = {"schema": 1, "seed": args.seed, "scale": scale,
              "seconds": args.seconds, "runs": runs}
    print_summary(result, metric_specs(benchmark))
    path = os.path.join(args.out, "result.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"result: {os.path.relpath(path, ROOT)}")
    return 0 if all(run["correct"] for run in runs) else 1


def print_summary(result: Dict[str, Any],
                  specs: Dict[str, Tuple[str, str, float]]) -> None:
    runs = result["runs"]
    workloads = list(dict.fromkeys(run["workload"] for run in runs))
    for workload in workloads:
        plain = [run for run in runs
                 if run["workload"] == workload and not run["trace"]]
        for name, (unit, _better, bound) in specs.items():
            values = [run["metrics"][name] for run in plain
                      if name in run["metrics"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            flag = "  unstable" if len(values) > 1 and bound and \
                spread(values) > bound else ""
            print(f"{workload} {name} {median:.6g} {unit} "
                  f"(median, q1-q3 {q1:.6g}-{q3:.6g}, n={len(values)})"
                  f"{flag}")
        traced = [run for run in runs
                  if run["workload"] == workload and run["trace"]]
        if not traced:
            continue
        for name in sorted(traced[0]["layers"]):
            values = [run["layers"][name] for run in traced
                      if name in run["layers"]]
            print(f"{workload} {name} {statistics.median(values):.6g} "
                  f"{_layer_unit(name)} (median per unit, n={len(values)})")
        overhead = statistics.median(run["unit_wall_s"] for run in traced) / \
            statistics.median(run["unit_wall_s"] for run in plain)
        print(f"{workload} trace_overhead {overhead:.4g} x "
              "(traced unit wall / untraced median)")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def main(argv: Optional[List[str]] = None) -> int:
    # Terminating run.py unwinds through _finish/_start, which reap the
    # workload's process group.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer simulator benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="single-run mode: run this workload once and "
                             "print the BENCHMARK.json result line")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="suite mode: comma-separated workloads "
                             "(default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7, the seed "
                             "expected.json covers)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "from BENCHMARK.json; --quick: one unit)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: runs per workload (default: 3)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer traced run (suite mode adds one "
                             "traced run after each untraced run)")
    parser.add_argument("--quick", action="store_true",
                        help=f"1/{SCALE_DIVISORS['quick']} instruction "
                             "counts, one unit per run (smoke test)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="output directory (default: perfbench/out)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(benchmark["run_seconds"])
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    if args.workload:
        return single_run(args, benchmark)
    return suite(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
