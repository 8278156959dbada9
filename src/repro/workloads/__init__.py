"""Workloads: program images, CFG generation, engines, dynamic traces."""

from .engine import (
    SyntheticMarkovEngine,
    TraceReplayEngine,
    WorkloadEngine,
    create_engine,
    engine_names,
)
from .generator import (
    BiasedBehavior,
    IndirectBehavior,
    LoopBehavior,
    Workload,
    WorkloadGenerator,
    WorkloadProfile,
    generate_workload,
)
from .program import BasicBlock, Function, Program
from .suite import (
    PAPER_BRANCH_MPKI,
    SUITE_GROUPS,
    WORKLOAD_NAMES,
    WORKLOAD_PROFILES,
    clear_workload_cache,
    get_profile,
    get_workload,
)
from .trace import DynamicInst, Trace, TraceBranchStats
from .tracefile import pack_trace, trace_info, unpack_trace

__all__ = [
    "BasicBlock",
    "BiasedBehavior",
    "DynamicInst",
    "Function",
    "IndirectBehavior",
    "LoopBehavior",
    "PAPER_BRANCH_MPKI",
    "Program",
    "SUITE_GROUPS",
    "SyntheticMarkovEngine",
    "Trace",
    "TraceBranchStats",
    "TraceReplayEngine",
    "WORKLOAD_NAMES",
    "WORKLOAD_PROFILES",
    "Workload",
    "WorkloadEngine",
    "WorkloadGenerator",
    "WorkloadProfile",
    "clear_workload_cache",
    "create_engine",
    "engine_names",
    "generate_workload",
    "get_profile",
    "get_workload",
    "pack_trace",
    "trace_info",
    "unpack_trace",
]
