"""Experiment harness: sweeps, normalization, and suite aggregation.

Every figure of the paper is one of two sweeps:

- a **capacity sweep** (Figs. 3-4): the baseline design at 2K..64K uops;
- a **policy sweep** (Figs. 15-22): baseline / CLASP / CLASP+RAC /
  CLASP+PWAC / CLASP+F-PWAC at a fixed capacity.

The harness runs them over the workload suite, reusing one generated trace
per workload across all configurations (the paper does the same: one trace,
many simulator configs), and provides the normalizations the paper plots
(everything relative to the 2K baseline unless stated otherwise).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

# policy_config is re-exported: callers have always found it here.
from ..common.config import POLICY_LABELS, policy_config  # noqa: F401
from ..common.errors import ReproError
from ..common.statistics import arithmetic_mean, geometric_mean
from ..runner.executor import RunnerConfig, SweepReport, SweepRunner
from ..runner.faults import FaultPlan
from ..runner.job import JobSpec, build_capacity_jobs, build_policy_jobs
from ..workloads.engine import create_engine
from ..workloads.suite import WORKLOAD_NAMES
from ..workloads.trace import Trace
from .metrics import SimulationResult

#: Capacities of the paper's Fig. 3/4 sweep (uops).
CAPACITY_SWEEP = (2048, 4096, 8192, 16384, 32768, 65536)

#: Default trace length per workload (dynamic instructions).  Long enough to
#: cycle each workload's footprint through the uop cache many times, short
#: enough to keep a full-suite sweep tractable in pure Python.
DEFAULT_TRACE_INSTRUCTIONS = 120_000

#: Default RNG seed for trace generation; every sweep/CLI entry point that
#: builds traces accepts a ``seed`` so runs are reproducible end to end.
DEFAULT_SEED = 7


_TraceKey = Tuple[str, int, int, str, Tuple[Tuple[str, object], ...]]
_trace_cache: "OrderedDict[_TraceKey, Trace]" = OrderedDict()

#: Bound on memoised traces (LRU eviction).  Traces are the largest objects a
#: sweep session holds; without a bound, a long session sweeping many
#: (workload, length, seed) combinations grows memory without limit.
_TRACE_CACHE_MAX_ENTRIES = 32


def workload_trace(name: str, num_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
                   seed: int = DEFAULT_SEED,
                   engine: str = "synthetic",
                   engine_params: Optional[Mapping[str, object]] = None
                   ) -> Trace:
    """Build (and memoise, LRU-bounded) the dynamic trace for a workload.

    ``engine`` selects a registered workload engine
    (:mod:`repro.workloads.engine`); ``engine_params`` are its parameters.
    The default (``synthetic``, no params) is bit-identical to the
    pre-registry ``get_workload(name).trace(...)`` path.  ``replay``
    traces are never cached: the backing file can change between calls.
    """
    params = dict(engine_params or {})
    if engine == "replay":
        return create_engine(engine, workload=name, params=params) \
            .build_trace(num_instructions, seed)
    key = (name, num_instructions, seed, engine,
           tuple(sorted(params.items())))
    trace = _trace_cache.get(key)
    if trace is None:
        trace = create_engine(engine, workload=name, params=params) \
            .build_trace(num_instructions, seed)
        _trace_cache[key] = trace
        while len(_trace_cache) > _TRACE_CACHE_MAX_ENTRIES:
            _trace_cache.popitem(last=False)
    else:
        _trace_cache.move_to_end(key)
    return trace


def clear_trace_cache() -> None:
    _trace_cache.clear()


@dataclass
class SweepResult:
    """Results of one (workload x config) sweep.

    A sweep that quarantined jobs is *partial*: some (workload, label) cells
    are absent.  Lookups name the missing key in a :class:`ReproError`
    instead of surfacing a bare ``KeyError``, and the table builders can
    either skip incomplete rows (``skip_missing=True``, what the CLI does
    after printing the failure report) or fail loudly (the default).
    """

    # results[workload][config_label]
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)
    #: Execution report of the producing runner (None for hand-built sweeps).
    report: Optional[SweepReport] = None

    def add(self, result: SimulationResult) -> None:
        self.results.setdefault(result.workload, {})[result.config_label] = result

    def workloads(self) -> List[str]:
        return list(self.results)

    def labels(self) -> List[str]:
        labels: List[str] = []
        push = labels.append
        for by_label in self.results.values():
            for label in by_label:
                if label not in labels:
                    push(label)
        return labels

    def metric(self, workload: str, label: str,
               metric: Callable[[SimulationResult], float]) -> float:
        by_label = self.results.get(workload)
        if by_label is None:
            raise ReproError(
                f"no results for workload {workload!r} "
                f"(have: {', '.join(self.results) or 'none'})")
        result = by_label.get(label)
        if result is None:
            raise ReproError(
                f"no result for config {label!r} under workload "
                f"{workload!r} (have: {', '.join(by_label) or 'none'}; "
                "was the job quarantined?)")
        return metric(result)

    def normalized(self, metric: Callable[[SimulationResult], float],
                   reference_label: str,
                   skip_missing: bool = False) -> Dict[str, Dict[str, float]]:
        """``metric(config)/metric(reference)`` per workload and config.

        A workload lacking the reference label (e.g. its job was
        quarantined) is skipped when ``skip_missing`` is set, otherwise it
        raises a :class:`ReproError` naming the missing cell.
        """
        table: Dict[str, Dict[str, float]] = {}
        for workload, by_label in self.results.items():
            if reference_label not in by_label:
                if skip_missing:
                    continue
                raise ReproError(
                    f"reference config {reference_label!r} missing for "
                    f"workload {workload!r} (have: "
                    f"{', '.join(by_label) or 'none'}; was the job "
                    "quarantined? pass skip_missing=True to drop the row)")
            reference = metric(by_label[reference_label])
            table[workload] = {
                label: (metric(result) / reference if reference else 0.0)
                for label, result in by_label.items()}
        return table

    def improvement_percent(self, metric: Callable[[SimulationResult], float],
                            reference_label: str,
                            skip_missing: bool = False
                            ) -> Dict[str, Dict[str, float]]:
        """Percent improvement of ``metric`` over the reference config."""
        normalized = self.normalized(metric, reference_label,
                                     skip_missing=skip_missing)
        return {workload: {label: 100.0 * (value - 1.0)
                           for label, value in by_label.items()}
                for workload, by_label in normalized.items()}

    def mean_over_workloads(self, per_workload: Mapping[str, Mapping[str, float]],
                            geometric: bool = False) -> Dict[str, float]:
        """Per-label mean over workloads; tolerates partial tables (a label
        is averaged over the workloads that actually have it, and labels
        with no values at all are omitted)."""
        means: Dict[str, float] = {}
        for label in self.labels():
            values = [by_label[label] for by_label in per_workload.values()
                      if label in by_label]
            if not values:
                continue
            means[label] = geometric_mean(values) if geometric \
                else arithmetic_mean(values)
        return means


def _run_jobs(jobs: Sequence[JobSpec],
              runner: Optional[RunnerConfig],
              fault_plan: Optional[FaultPlan],
              progress: Optional[Callable[[str], None]],
              progress_line: Callable[[SimulationResult], str]) -> SweepResult:
    """Execute sweep jobs through the fault-tolerant runner."""
    runner = runner or RunnerConfig()
    if runner.jobs > 1:
        # Pre-warm the trace cache so forked workers inherit built traces
        # instead of regenerating them per process.
        for job in jobs:
            workload_trace(job.workload, job.num_instructions, seed=job.seed,
                           engine=job.engine,
                           engine_params=dict(job.engine_params))
    wrapped = (lambda job, result: progress(progress_line(result))) \
        if progress else None
    executor = SweepRunner(runner, fault_plan=fault_plan, progress=wrapped)
    results, report = executor.run(jobs)
    sweep = SweepResult(report=report)
    for result in results.values():
        sweep.add(result)
    return sweep


def run_capacity_sweep(
        workloads: Sequence[str] = WORKLOAD_NAMES,
        capacities: Sequence[int] = CAPACITY_SWEEP,
        num_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
        warmup_instructions: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        seed: int = DEFAULT_SEED,
        runner: Optional[RunnerConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: bool = False,
        engine: str = "synthetic",
        engine_params: Optional[Mapping[str, object]] = None) -> SweepResult:
    """Fig. 3/4: baseline uop cache at each capacity, per workload.

    ``runner`` selects the execution policy (parallelism, timeouts, retries,
    checkpoint/resume); the default is the serial in-process degenerate case.
    ``telemetry`` enables per-kind event counting in every job, journaled
    through ``SimulationResult.telemetry_events``.  ``engine`` selects the
    workload engine that produces every trace of the sweep.
    """
    jobs = build_capacity_jobs(workloads, capacities, num_instructions,
                               warmup_instructions, seed,
                               telemetry=telemetry, engine=engine,
                               engine_params=engine_params)
    return _run_jobs(
        jobs, runner, fault_plan, progress,
        lambda r: f"{r.workload} {r.config_label}: upc={r.upc:.3f}")


def run_policy_sweep(
        workloads: Sequence[str] = WORKLOAD_NAMES,
        labels: Sequence[str] = POLICY_LABELS,
        capacity_uops: int = 2048,
        max_entries_per_line: int = 2,
        num_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
        warmup_instructions: int = 0,
        progress: Optional[Callable[[str], None]] = None,
        seed: int = DEFAULT_SEED,
        runner: Optional[RunnerConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: bool = False,
        engine: str = "synthetic",
        engine_params: Optional[Mapping[str, object]] = None) -> SweepResult:
    """Figs. 15-22: the paper's five designs at a fixed capacity."""
    jobs = build_policy_jobs(workloads, labels, capacity_uops,
                             max_entries_per_line, num_instructions,
                             warmup_instructions, seed,
                             telemetry=telemetry, engine=engine,
                             engine_params=engine_params)
    return _run_jobs(
        jobs, runner, fault_plan, progress,
        lambda r: (f"{r.workload} {r.config_label}: upc={r.upc:.3f} "
                   f"fetch={r.oc_fetch_ratio:.3f}"))
