"""Reproduction of "Improving the Utilization of Micro-operation Caches in
x86 Processors" (Kotra & Kalamatianos, MICRO 2020).

Curated entry points::

    from repro import simulate, baseline_config, compaction_config
    from repro import get_workload, CompactionPolicy

    trace = get_workload("bm-cc").trace(100_000)
    base = simulate(trace, baseline_config(2048))
    best = simulate(trace, compaction_config(CompactionPolicy.F_PWAC, 2048))

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from .common.config import (
    CompactionPolicy,
    SimulatorConfig,
    baseline_config,
    clasp_config,
    compaction_config,
)
from .core.experiment import (
    run_capacity_sweep,
    run_policy_sweep,
    workload_trace,
)
from .core.metrics import SimulationResult
from .core.simulator import Simulator, simulate
from .core.smt import SmtSimulator, simulate_smt
from .runner import FaultPlan, JobSpec, RunnerConfig, SweepReport, SweepRunner
from .workloads.generator import Workload, WorkloadProfile, generate_workload
from .workloads.suite import WORKLOAD_NAMES, get_workload

__version__ = "1.0.0"

__all__ = [
    "CompactionPolicy",
    "FaultPlan",
    "JobSpec",
    "RunnerConfig",
    "SimulationResult",
    "Simulator",
    "SimulatorConfig",
    "SmtSimulator",
    "SweepReport",
    "SweepRunner",
    "WORKLOAD_NAMES",
    "Workload",
    "WorkloadProfile",
    "baseline_config",
    "clasp_config",
    "compaction_config",
    "generate_workload",
    "get_workload",
    "run_capacity_sweep",
    "run_policy_sweep",
    "simulate",
    "simulate_smt",
    "workload_trace",
]
