"""The fault-tolerant sweep executor.

:class:`SweepRunner` runs :class:`~repro.runner.job.JobSpec` jobs inline
(``jobs == 1``, the serial case) or on the job service's supervised
:class:`~repro.service.supervisor.WorkerPool` of ``jobs`` long-lived worker
processes (``jobs > 1``).  Robustness model:

- **Per-job timeout** (parallel mode): the pool kills a worker whose attempt
  runs past ``timeout_seconds`` (its deadline) and respawns the slot; the
  attempt counts as failed and goes through the retry machinery.  Inline
  execution cannot be preempted from within the same process, so timeouts
  require ``jobs >= 2``.
- **Bounded retries with jittered exponential backoff**: a failed job is
  re-queued with delay ``backoff * 2**attempt`` (capped), scaled by a
  deterministic jitter factor derived from the job's seed (see
  :mod:`repro.runner.backoff`) so simultaneous retries don't synchronize,
  up to ``retries`` times.
- **Quarantine**: a job that exhausts its retries is set aside with its full
  error history; the sweep *completes* and reports it instead of dying.
- **Checkpointing**: every completed result is journaled crash-safely as
  it completes (see :mod:`repro.runner.checkpoint`); ``resume=True``
  re-runs only the jobs missing from the journal.

Parallel and serial runs produce bit-identical results for the same jobs:
workers rebuild trace and configuration deterministically from the job spec
(see :func:`repro.runner.job.execute_job`) and results are returned in
canonical job order regardless of completion order.  Both release the fast
loop's trace views whenever the next job's :attr:`JobSpec.trace_key`
differs from the last one's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..common.errors import RunnerError
from ..core.metrics import SimulationResult
from .backoff import jittered_backoff
from .checkpoint import CheckpointJournal
from .faults import FaultPlan, apply_fault
from .job import JobSpec, execute_job

ProgressFn = Callable[[JobSpec, SimulationResult], None]


@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy of one sweep run."""

    jobs: int = 1                       # worker processes; 1 = inline/serial
    timeout_seconds: Optional[float] = None   # per-attempt budget (parallel)
    retries: int = 2                    # re-runs after the first failure
    backoff_seconds: float = 0.5        # base of the exponential backoff
    backoff_cap_seconds: float = 30.0
    checkpoint_dir: Optional[Union[str, Path]] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise RunnerError("runner needs at least one job slot")
        if self.retries < 0:
            raise RunnerError("retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise RunnerError("timeout must be positive")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise RunnerError("backoff must be >= 0")
        if self.resume and self.checkpoint_dir is None:
            raise RunnerError("resume requires a checkpoint directory")


@dataclass
class JobFailure:
    """Terminal failure record of one quarantined job."""

    job_id: str
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class SweepReport:
    """What actually happened during a sweep run or a pool batch."""

    total_jobs: int = 0
    executed: List[str] = field(default_factory=list)    # ran, in order done
    resumed: List[str] = field(default_factory=list)     # from the journal
    quarantined: List[JobFailure] = field(default_factory=list)
    retried: Dict[str, int] = field(default_factory=dict)  # failures healed
    worker_restarts: int = 0                             # pool slots replaced
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def describe(self) -> str:
        """Human-readable multi-line summary (the explicit failure report)."""
        completed = len(self.executed) + len(self.resumed)
        restarts = f", {self.worker_restarts} worker restart(s)" \
            if self.worker_restarts else ""
        lines = [f"sweep: {completed}/{self.total_jobs} jobs completed "
                 f"({len(self.resumed)} resumed from checkpoint, "
                 f"{len(self.quarantined)} quarantined{restarts}) "
                 f"in {self.elapsed_seconds:.1f}s"]
        for job_id, failures in sorted(self.retried.items()):
            lines.append(f"  retried {job_id}: succeeded after "
                         f"{failures} failed attempt(s)")
        for failure in self.quarantined:
            lines.append(f"  QUARANTINED {failure.job_id} after "
                         f"{failure.attempts} attempt(s):")
            for number, error in enumerate(failure.errors, 1):
                lines.append(f"    attempt {number}: {error}")
        return "\n".join(lines)


class SweepRunner:
    """Executes a list of jobs under a :class:`RunnerConfig`."""

    def __init__(self, config: Optional[RunnerConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.config = config or RunnerConfig()
        self.fault_plan = fault_plan
        self.progress = progress

    # ------------------------------------------------------------------ api

    def run(self, jobs: Sequence[JobSpec]
            ) -> Tuple[Dict[str, SimulationResult], SweepReport]:
        """Run every job; returns ``({job_id: result}, report)``.

        The result dict preserves canonical job order (quarantined jobs are
        simply absent) so downstream tables are deterministic regardless of
        parallel completion order.
        """
        cfg = self.config
        seen: Dict[str, JobSpec] = {}
        for job in jobs:
            if job.job_id in seen:
                raise RunnerError(f"duplicate job id {job.job_id!r}")
            seen[job.job_id] = job

        started = time.monotonic()
        report = SweepReport(total_jobs=len(jobs))
        completed: Dict[str, SimulationResult] = {}

        journal: Optional[CheckpointJournal] = None
        if cfg.checkpoint_dir is not None:
            journal = CheckpointJournal(cfg.checkpoint_dir)
            if cfg.resume:
                for job_id, result in journal.load().items():
                    if job_id in seen:
                        completed[job_id] = result
                        report.resumed.append(job_id)
            elif journal.path.exists():
                raise RunnerError(
                    f"checkpoint journal {journal.path} already exists; "
                    "pass resume=True to continue it or use a fresh "
                    "checkpoint directory")

        remaining = [job for job in jobs if job.job_id not in completed]
        if cfg.jobs == 1:
            self._run_serial(remaining, completed, report, journal)
        elif remaining:
            self._run_pool(remaining, completed, report, journal)
        # A finished sweep keeps no fast-loop views.  (Imported here, as
        # the simulator imports the fast loop, to keep it out of start-up.)
        from ..core.fastpath import release_views
        release_views()

        report.elapsed_seconds = time.monotonic() - started
        ordered = {job.job_id: completed[job.job_id]
                   for job in jobs if job.job_id in completed}
        return ordered, report

    # --------------------------------------------------------------- serial

    def _backoff_delay(self, job: JobSpec, attempt: int) -> float:
        """Deterministic jittered delay before retrying ``job``.

        A pure function of ``(job.job_id, job.seed, attempt)``: the same
        sweep run twice backs off identically, while jobs retrying in the
        same round spread out instead of re-failing in lockstep.
        """
        cfg = self.config
        return jittered_backoff(cfg.backoff_seconds, cfg.backoff_cap_seconds,
                                attempt, job.seed, f"backoff/{job.job_id}")

    def _run_serial(self, jobs: Sequence[JobSpec], completed, report,
                    journal) -> None:
        """Inline execution: the historical serial sweep plus retry logic.

        Timeouts are not enforced here — an in-process job cannot be
        preempted; use ``jobs >= 2`` for timeout protection.

        Sweeps run workload-major (``build_*_jobs``), so when the trace
        changes, the fast loop's views of the earlier traces are done
        with; kept until their traces left the trace LRU, they cost a
        four-workload sweep ~10% more peak memory.
        """
        from ..core.fastpath import release_views
        cfg = self.config
        faults = self.fault_plan.schedule(job.job_id for job in jobs) \
            if self.fault_plan is not None else {}
        trace_key = None
        for job in jobs:
            if job.trace_key != trace_key:
                release_views()
                trace_key = job.trace_key
            plan = faults.get(job.job_id, ())
            errors: List[str] = []
            for attempt in range(cfg.retries + 1):
                if attempt:
                    time.sleep(self._backoff_delay(job, attempt - 1))
                try:
                    if attempt < len(plan):
                        apply_fault(plan[attempt])
                    result = execute_job(job)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    errors.append(f"{type(error).__name__}: {error}")
                    continue
                completed[job.job_id] = result
                report.executed.append(job.job_id)
                if attempt:
                    report.retried[job.job_id] = attempt
                if journal is not None:
                    journal.record(job.job_id, result)
                if self.progress is not None:
                    self.progress(job, result)
                break
            else:
                report.quarantined.append(JobFailure(
                    job_id=job.job_id, attempts=len(errors), errors=errors))

    # ------------------------------------------------------------- parallel

    def _run_pool(self, jobs: Sequence[JobSpec], completed, report,
                  journal) -> None:
        """Run ``jobs`` on a supervised :class:`WorkerPool`.

        The pool enforces the per-attempt timeout as its deadline, retries
        with the same backoff base and cap, and hands each result back as
        it completes, so every finished job is journaled at once.
        """
        # Imported here: serial sweeps never load the service package.
        from ..service.supervisor import PoolConfig, WorkerPool
        cfg = self.config
        by_id = {job.job_id: job for job in jobs}
        faults = self.fault_plan.schedule(by_id) \
            if self.fault_plan is not None else None
        pool_config = PoolConfig(
            workers=min(cfg.jobs, len(jobs)), retries=cfg.retries,
            deadline_seconds=cfg.timeout_seconds,
            retry_backoff_seconds=cfg.backoff_seconds,
            retry_backoff_cap_seconds=cfg.backoff_cap_seconds)

        def record(job_id: str, result: SimulationResult) -> None:
            completed[job_id] = result
            if journal is not None:
                journal.record(job_id, result)
            if self.progress is not None:
                self.progress(by_id[job_id], result)

        with WorkerPool(pool_config, faults=faults) as pool:
            _, batch = pool.run_batch(list(by_id.items()), on_result=record)
        report.executed += batch.executed
        report.retried.update(batch.retried)
        report.quarantined += batch.quarantined
        report.worker_restarts = batch.worker_restarts
