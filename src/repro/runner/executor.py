"""The fault-tolerant sweep executor.

:class:`SweepRunner` fans :class:`~repro.runner.job.SweepJob` jobs out over
worker processes (``jobs > 1``) or runs them inline (``jobs == 1``, the
degenerate serial case that behaves exactly like the historical sweep loop).
Robustness model:

- **Per-job timeout** (parallel mode): a worker that exceeds its budget is
  terminated; the job counts as failed and goes through the retry machinery.
  Inline execution cannot be preempted from within the same process, so
  timeouts require ``jobs >= 2``.
- **Bounded retries with jittered exponential backoff**: a failed job is
  re-queued with delay ``backoff * 2**attempt`` (capped), scaled by a
  deterministic jitter factor derived from the job's seed (see
  :mod:`repro.runner.backoff`) so simultaneous retries don't synchronize,
  up to ``retries`` times.
- **Quarantine**: a job that exhausts its retries is set aside with its full
  error history; the sweep *completes* and reports it instead of dying.
- **Checkpointing**: every completed result is journaled crash-safely (see
  :mod:`repro.runner.checkpoint`); ``resume=True`` re-runs only the jobs
  missing from the journal.

Parallel and serial runs produce bit-identical results for the same jobs:
workers rebuild trace and configuration deterministically from the job spec
(see :func:`repro.runner.job.execute_job`) and results are returned in
canonical job order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..common.errors import RunnerError
from ..core.metrics import SimulationResult
from .backoff import jittered_backoff
from .checkpoint import CheckpointJournal
from .faults import FaultPlan
from .job import SweepJob, execute_job

ProgressFn = Callable[[SweepJob, SimulationResult], None]


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
    strict_invariants: bool = True      # run simulations with strict checking
    poll_interval_seconds: float = 0.02

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
    """What actually happened during a sweep run."""

    total_jobs: int = 0
    executed: List[str] = field(default_factory=list)    # ran this session
    resumed: List[str] = field(default_factory=list)     # from the journal
    quarantined: List[JobFailure] = field(default_factory=list)
    retried: Dict[str, int] = field(default_factory=dict)  # failures healed
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def describe(self) -> str:
        """Human-readable multi-line summary (the explicit failure report)."""
        completed = len(self.executed) + len(self.resumed)
        lines = [f"sweep: {completed}/{self.total_jobs} jobs completed "
                 f"({len(self.resumed)} resumed from checkpoint, "
                 f"{len(self.quarantined)} quarantined) "
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


@dataclass
class _PendingAttempt:
    job: SweepJob
    attempt: int              # 0-based attempt counter
    eligible_at: float        # monotonic time before which it must not start
    order: int                # canonical position, for deterministic pops


class _RunningJob:
    __slots__ = ("entry", "process", "conn", "started_at")

    def __init__(self, entry, process, conn, started_at):
        self.entry = entry
        self.process = process
        self.conn = conn
        self.started_at = started_at


def _pool_worker(conn, job: SweepJob, attempt: int,
                 fault_plan: Optional[FaultPlan], strict: bool) -> None:
    """Run one job in a worker process; ship outcome over ``conn``."""
    try:
        if fault_plan is not None:
            fault_plan.apply(job.job_id, attempt)
        result = execute_job(job, strict=strict)
        conn.send(("ok", result.to_dict()))
    except BaseException as error:   # ship *any* failure back to the parent
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):   # parent already gave up on us
            pass
    finally:
        conn.close()


class SweepRunner:
    """Executes a list of jobs under a :class:`RunnerConfig`."""

    def __init__(self, config: Optional[RunnerConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        self.config = config or RunnerConfig()
        self.fault_plan = fault_plan
        self.progress = progress

    # ------------------------------------------------------------------ api

    def run(self, jobs: Sequence[SweepJob]
            ) -> Tuple[Dict[str, SimulationResult], SweepReport]:
        """Run every job; returns ``({job_id: result}, report)``.

        The result dict preserves canonical job order (quarantined jobs are
        simply absent) so downstream tables are deterministic regardless of
        parallel completion order.
        """
        cfg = self.config
        seen: Dict[str, SweepJob] = {}
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
        else:
            self._run_parallel(remaining, completed, report, journal)
        # execute_job keeps the fast loop's views of the current trace
        # only; a finished sweep keeps none.  (Imported here, as the
        # simulator imports the fast loop, to keep it out of start-up.)
        from ..core.fastpath import release_views
        release_views()

        report.elapsed_seconds = time.monotonic() - started
        ordered = {job.job_id: completed[job.job_id]
                   for job in jobs if job.job_id in completed}
        return ordered, report

    # --------------------------------------------------------------- shared

    def _backoff_delay(self, job: SweepJob, attempt: int) -> float:
        """Deterministic jittered delay before retrying ``job``.

        A pure function of ``(job.job_id, job.seed, attempt)``: the same
        sweep run twice backs off identically, while jobs retrying in the
        same round spread out instead of re-failing in lockstep.
        """
        cfg = self.config
        return jittered_backoff(cfg.backoff_seconds, cfg.backoff_cap_seconds,
                                attempt, job.seed, f"backoff/{job.job_id}")

    def _record_success(self, job: SweepJob, result: SimulationResult,
                        attempt: int, completed, report, journal) -> None:
        completed[job.job_id] = result
        report.executed.append(job.job_id)
        if attempt:
            report.retried[job.job_id] = attempt
        if journal is not None:
            journal.record(job.job_id, result)
        if self.progress is not None:
            self.progress(job, result)

    # --------------------------------------------------------------- serial

    def _run_serial(self, jobs: Sequence[SweepJob], completed, report,
                    journal) -> None:
        """Inline execution: the historical serial sweep plus retry logic.

        Timeouts are not enforced here — an in-process job cannot be
        preempted; use ``jobs >= 2`` for timeout protection.
        """
        cfg = self.config
        for job in jobs:
            errors: List[str] = []
            for attempt in range(cfg.retries + 1):
                if attempt:
                    time.sleep(self._backoff_delay(job, attempt - 1))
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(job.job_id, attempt)
                    result = execute_job(job, strict=cfg.strict_invariants)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    errors.append(f"{type(error).__name__}: {error}")
                    continue
                self._record_success(job, result, attempt, completed,
                                     report, journal)
                break
            else:
                report.quarantined.append(JobFailure(
                    job_id=job.job_id, attempts=len(errors), errors=errors))

    # ------------------------------------------------------------- parallel

    def _run_parallel(self, jobs: Sequence[SweepJob], completed, report,
                      journal) -> None:
        cfg = self.config
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:       # platform without fork: jobs must pickle
            ctx = multiprocessing.get_context()

        pending: List[_PendingAttempt] = [
            _PendingAttempt(job=job, attempt=0, eligible_at=0.0, order=index)
            for index, job in enumerate(jobs)]
        running: Dict[str, _RunningJob] = {}
        errors: Dict[str, List[str]] = {}

        def fail(entry: _PendingAttempt, message: str) -> None:
            history = errors.setdefault(entry.job.job_id, [])
            history.append(message)
            if entry.attempt < cfg.retries:
                pending.append(_PendingAttempt(
                    job=entry.job, attempt=entry.attempt + 1,
                    eligible_at=(time.monotonic() +
                                 self._backoff_delay(entry.job,
                                                     entry.attempt)),
                    order=entry.order))
            else:
                report.quarantined.append(JobFailure(
                    job_id=entry.job.job_id, attempts=len(history),
                    errors=history))

        try:
            while pending or running:
                now = time.monotonic()
                # Launch eligible attempts into free slots, canonical order
                # first so serial and parallel sweeps schedule alike.
                pending.sort(key=lambda e: (e.order, e.attempt))
                launched = []
                for entry in pending:
                    if len(running) + len(launched) >= cfg.jobs:
                        break
                    if entry.eligible_at > now:
                        continue
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    process = ctx.Process(
                        target=_pool_worker,
                        args=(child_conn, entry.job, entry.attempt,
                              self.fault_plan, cfg.strict_invariants),
                        daemon=True)
                    process.start()
                    child_conn.close()
                    running[entry.job.job_id] = _RunningJob(
                        entry, process, parent_conn, time.monotonic())
                    launched.append(entry)
                for entry in launched:
                    pending.remove(entry)

                progressed = bool(launched)
                for job_id, run in list(running.items()):
                    outcome = self._poll_worker(run, time.monotonic())
                    if outcome is None:
                        continue
                    progressed = True
                    del running[job_id]
                    status, payload = outcome
                    if status == "ok":
                        attempts_failed = len(errors.get(job_id, []))
                        if attempts_failed:
                            report.retried[job_id] = attempts_failed
                        completed[job_id] = payload
                        report.executed.append(job_id)
                        if journal is not None:
                            journal.record(job_id, payload)
                        if self.progress is not None:
                            self.progress(run.entry.job, payload)
                    else:
                        fail(run.entry, payload)

                if not progressed:
                    time.sleep(cfg.poll_interval_seconds)
        except BaseException:
            # Interrupt/crash: reap workers so completed work stays journaled
            # and the next resume picks up cleanly.
            for run in running.values():
                run.process.terminate()
                run.process.join(timeout=5)
                run.conn.close()
            raise

    def _poll_worker(self, run: _RunningJob, now: float):
        """One worker poll; returns ``("ok", result) | ("error", msg) | None``."""
        cfg = self.config
        if run.conn.poll():
            try:
                status, payload = run.conn.recv()
            except (EOFError, OSError):
                status, payload = "error", "worker died before reporting"
            run.process.join(timeout=5)
            run.conn.close()
            if status == "ok":
                return "ok", SimulationResult.from_dict(payload)
            return "error", payload
        if not run.process.is_alive():
            run.process.join(timeout=5)
            run.conn.close()
            return ("error", "worker died without a result "
                    f"(exit code {run.process.exitcode})")
        if cfg.timeout_seconds is not None and \
                now - run.started_at > cfg.timeout_seconds:
            run.process.terminate()
            run.process.join(timeout=5)
            run.conn.close()
            return ("error",
                    f"timed out after {cfg.timeout_seconds:g}s "
                    f"(attempt {run.entry.attempt + 1})")
        return None
