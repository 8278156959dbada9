"""Fault-tolerant parallel sweep execution.

Public surface::

    from repro.runner import (
        JobSpec, SweepRunner, RunnerConfig, SweepReport, JobFailure,
        FaultPlan, CheckpointJournal, execute_job,
    )

See :mod:`repro.runner.executor` for the robustness model (timeouts,
retries, quarantine, checkpoint/resume).
"""

from .backoff import jittered_backoff
from .checkpoint import CheckpointJournal
from .executor import JobFailure, RunnerConfig, SweepReport, SweepRunner
from .faults import FaultPlan
from .job import (
    JobSpec,
    build_capacity_jobs,
    build_policy_jobs,
    capacity_label,
    execute_job,
)

__all__ = [
    "CheckpointJournal",
    "FaultPlan",
    "JobFailure",
    "JobSpec",
    "RunnerConfig",
    "SweepReport",
    "SweepRunner",
    "build_capacity_jobs",
    "build_policy_jobs",
    "capacity_label",
    "execute_job",
    "jittered_backoff",
]
