"""Crash-safe simulation-as-a-service layer.

Public surface::

    from repro.service import (
        JobSpec, ResultStore, PoolConfig, WorkerPool,
        SimulationService, ServiceServer, ChaosSpec, run_chaos,
    )

The service accepts (workload, config-overrides, design, seed) job
submissions, shards them across a supervised pool of worker processes, and
persists results in a content-addressed store keyed by a canonical
config+workload+seed hash — duplicate submissions are free cache hits.
Robustness is enforced by construction: worker supervision with heartbeats
and per-job deadlines, restart with jittered backoff, escalating
quarantine, checksummed atomic persistence with torn-tail recovery, and
graceful degradation to explicit-gap partial results.  The chaos harness
(:mod:`repro.service.chaos`, ``repro chaos``) proves the failure story by
injecting process- and file-level faults under a seeded schedule and
asserting the end state is byte-identical to a fault-free run.
"""

from ..runner.job import JobSpec
from .chaos import ChaosReport, ChaosSpec, run_chaos
from .server import ServiceBatchResult, ServiceServer, SimulationService
from .store import ResultStore
from .supervisor import PoolConfig, WorkerPool

__all__ = [
    "ChaosReport",
    "ChaosSpec",
    "JobSpec",
    "PoolConfig",
    "ResultStore",
    "ServiceBatchResult",
    "ServiceServer",
    "SimulationService",
    "WorkerPool",
    "run_chaos",
]
