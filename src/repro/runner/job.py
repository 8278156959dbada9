"""Sweep jobs: the unit of work the fault-tolerant runner schedules.

A :class:`SweepJob` is a small, picklable, self-contained description of one
(workload x configuration) simulation: everything a worker process needs to
rebuild the trace and the simulator configuration from scratch.  Jobs carry
only primitives (names, counts, seeds) rather than live objects so they
cross process boundaries cheaply and a checkpoint journal can identify them
stably across runs by :attr:`SweepJob.job_id`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from ..common.config import TelemetryConfig, baseline_config
from ..common.errors import RunnerError
from ..core.metrics import SimulationResult

#: Job kinds understood by :func:`execute_job`.
KIND_CAPACITY = "capacity"
KIND_POLICY = "policy"


@dataclass(frozen=True)
class SweepJob:
    """One (workload x config) simulation, identified by ``workload/label``."""

    workload: str
    label: str                  # config label used in the sweep tables
    kind: str                   # KIND_CAPACITY | KIND_POLICY
    capacity_uops: int = 2048
    max_entries_per_line: int = 2
    num_instructions: int = 120_000
    warmup_instructions: int = 0
    seed: int = 7
    #: Count telemetry events during the run; the per-kind totals land in
    #: ``SimulationResult.telemetry_events`` and hence the checkpoint journal.
    telemetry: bool = False
    #: Workload engine producing the trace (see repro.workloads.engine) and
    #: its parameters as sorted (name, value) pairs — a tuple so the job
    #: stays hashable, picklable, and stable in checkpoint journals.
    engine: str = "synthetic"
    engine_params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def job_id(self) -> str:
        """Stable identity used for checkpointing and failure reports.

        Synthetic jobs keep the historical ``workload/label`` shape so old
        checkpoint journals still resume; other engines are suffixed so a
        checkpoint dir shared across engines never aliases cells.
        """
        base = f"{self.workload}/{self.label}"
        if self.engine == "synthetic" and not self.engine_params:
            return base
        return f"{base}@{self.engine}"


def capacity_label(capacity_uops: int) -> str:
    """The sweep-table label of one capacity point (e.g. ``OC_2K``)."""
    return f"OC_{capacity_uops // 1024}K"


def engine_params_tuple(engine_params: Optional[Mapping[str, Any]]
                        ) -> Tuple[Tuple[str, Any], ...]:
    """Canonical (sorted, hashable) form of an engine parameter mapping."""
    return tuple(sorted((engine_params or {}).items()))


def build_capacity_jobs(workloads: Sequence[str],
                        capacities: Sequence[int],
                        num_instructions: int,
                        warmup_instructions: int = 0,
                        seed: int = 7,
                        telemetry: bool = False,
                        engine: str = "synthetic",
                        engine_params: Optional[Mapping[str, Any]] = None
                        ) -> List[SweepJob]:
    """Jobs of a Fig. 3/4 capacity sweep, in canonical (workload-major) order."""
    params = engine_params_tuple(engine_params)
    return [SweepJob(workload=name, label=capacity_label(capacity),
                     kind=KIND_CAPACITY, capacity_uops=capacity,
                     num_instructions=num_instructions,
                     warmup_instructions=warmup_instructions, seed=seed,
                     telemetry=telemetry, engine=engine,
                     engine_params=params)
            for name in workloads for capacity in capacities]


def build_policy_jobs(workloads: Sequence[str],
                      labels: Sequence[str],
                      capacity_uops: int,
                      max_entries_per_line: int,
                      num_instructions: int,
                      warmup_instructions: int = 0,
                      seed: int = 7,
                      telemetry: bool = False,
                      engine: str = "synthetic",
                      engine_params: Optional[Mapping[str, Any]] = None
                      ) -> List[SweepJob]:
    """Jobs of a Fig. 15-22 policy sweep, in canonical order."""
    params = engine_params_tuple(engine_params)
    return [SweepJob(workload=name, label=label, kind=KIND_POLICY,
                     capacity_uops=capacity_uops,
                     max_entries_per_line=max_entries_per_line,
                     num_instructions=num_instructions,
                     warmup_instructions=warmup_instructions, seed=seed,
                     telemetry=telemetry, engine=engine,
                     engine_params=params)
            for name in workloads for label in labels]


def execute_job(job: SweepJob, strict: bool = True) -> SimulationResult:
    """Run one job to completion in the current process.

    Shared by the serial path and the pool workers so parallel and serial
    sweeps are bit-identical: the simulation depends only on the (seeded)
    trace and the configuration, both rebuilt deterministically here.

    Counters-only jobs take the fast serve loop, as service jobs do
    (:func:`repro.service.protocol.execute_spec`); its result is
    bit-identical to the stepped loop's, and with ``strict`` it runs the
    same invariant checks after every fetch action.  Telemetry jobs keep
    the stepped loop, which is the one that emits events.
    """
    # Imported lazily: experiment.py builds its sweeps on top of this runner,
    # so a module-level import would be circular.
    from ..core.experiment import policy_config, workload_trace
    from ..core.fastpath import release_views
    from ..core.simulator import Simulator

    if job.kind == KIND_CAPACITY:
        config = baseline_config(job.capacity_uops)
    elif job.kind == KIND_POLICY:
        config = policy_config(job.label, job.capacity_uops,
                               job.max_entries_per_line)
    else:
        raise RunnerError(f"unknown job kind {job.kind!r} for {job.job_id}")
    config = dataclasses.replace(
        config, warmup_instructions=job.warmup_instructions)
    if job.telemetry:
        config = dataclasses.replace(
            config, telemetry=TelemetryConfig(enabled=True))
    else:
        config = config.with_fast_mode()
    trace = workload_trace(job.workload, job.num_instructions, seed=job.seed,
                           engine=job.engine,
                           engine_params=dict(job.engine_params))
    if not job.telemetry:
        # Sweeps run their jobs workload-major (build_*_jobs), so the fast
        # loop's views of earlier traces are done with.  Kept until their
        # traces left the trace LRU, they cost a four-workload sweep ~10%
        # more peak memory.
        release_views(keep=trace)
    return Simulator(trace, config, job.label, strict=strict).run()
