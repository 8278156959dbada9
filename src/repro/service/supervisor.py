"""Supervised worker pool: heartbeats, deadlines, restart, quarantine.

The pool owns ``workers`` long-lived processes and shards job specs across
them.  Supervision model, enforced from the parent side so no cooperation
from a sick worker is required:

- **Heartbeats.**  A working worker beats every ``heartbeat_interval``
  seconds from a side thread; a busy worker that goes silent for
  ``heartbeat_timeout`` is presumed frozen (GIL-stuck, suspended, swapped
  to death) and is killed and replaced.  Process *death* (SIGKILL, OOM,
  segfault) is detected directly from the closed pipe / dead process.
- **Per-job deadlines.**  An attempt running past ``deadline_seconds`` is
  killed even if it beats on time — a hung simulation is indistinguishable
  from an infinite loop and the rest of the sweep must not wait on it.
- **Restart with jittered backoff.**  A replaced worker slot respawns after
  a deterministic jittered delay that escalates with consecutive failures
  (:func:`repro.runner.backoff.jittered_backoff`), so a crash-looping host
  does not fork-bomb itself while still recovering quickly from one-off
  kills.
- **Escalating quarantine.**  A failed attempt is retried on a fresh worker
  up to ``retries`` times with the same jittered backoff discipline the
  sweep runner uses; a job that keeps failing is quarantined with its full
  error history and the *batch completes without it* — explicit-gap partial
  results instead of nothing.

Fault directives (:mod:`repro.runner.faults`, built by the chaos harness
or a sweep's ``FaultPlan``) ride along with job dispatch and execute
*inside the worker*, so injected kills, hangs, freezes and crashes exercise
exactly the recovery paths real faults would.

The pool runs ``repro serve`` batches and every ``--jobs N`` sweep
(:class:`repro.runner.executor.SweepRunner`).  A worker drops the fast
loop's trace views whenever its next job's trace differs from its last
one's, as the serial sweep does, so a long-lived worker holds one trace's
views at a time.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import signal
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..common.errors import ServiceError
from ..core.metrics import SimulationResult
from ..runner.backoff import jittered_backoff
from ..runner.executor import JobFailure, SweepReport
from ..runner.faults import apply_fault
from ..runner.job import JobSpec, execute_job
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub

#: Called with ``(key, result)`` as each job of a batch completes.
ResultFn = Callable[[str, SimulationResult], None]


@dataclass(frozen=True)
class PoolConfig:
    """Supervision policy of one worker pool."""

    workers: int = 2
    retries: int = 2                      # re-runs after the first failure
    deadline_seconds: Optional[float] = 60.0   # per-attempt budget
    heartbeat_interval_seconds: float = 0.1
    heartbeat_timeout_seconds: float = 2.0
    retry_backoff_seconds: float = 0.05   # base of the job retry backoff
    retry_backoff_cap_seconds: float = 2.0
    restart_backoff_seconds: float = 0.05  # base of the slot respawn backoff
    restart_backoff_cap_seconds: float = 2.0
    seed: int = 7                          # decorrelates slot respawn jitter
    poll_interval_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServiceError("pool needs at least one worker")
        if self.retries < 0:
            raise ServiceError("retries must be >= 0")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ServiceError("deadline must be positive")
        if self.heartbeat_interval_seconds <= 0 or \
                self.heartbeat_timeout_seconds <= 0:
            raise ServiceError("heartbeat interval/timeout must be positive")
        if self.heartbeat_timeout_seconds <= \
                2 * self.heartbeat_interval_seconds:
            raise ServiceError(
                "heartbeat timeout must exceed twice the interval, or "
                "ordinary scheduling jitter reads as a frozen worker")


# --------------------------------------------------------------- worker side

def _worker_main(conn: Any, heartbeat_interval: float) -> None:
    """Worker loop: recv job -> beat -> simulate -> send outcome."""
    # A worker forked while `repro serve` maps SIGTERM to KeyboardInterrupt
    # (a respawned one, say) must still die on SIGTERM, not report it as a
    # job error.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    send_lock = threading.Lock()
    trace_key: Optional[Tuple[Any, ...]] = None

    def send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                pass     # parent gave up on us; nothing left to report to

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, key, spec_dict, attempt, fault = message
        stop_beating = threading.Event()

        def beat(job_key: str = key, stop: threading.Event = stop_beating
                 ) -> None:
            while not stop.wait(heartbeat_interval):
                send(("beat", job_key))

        # A "freeze" fault suppresses heartbeats entirely: the worker is
        # alive but silent, the failure mode the heartbeat monitor exists
        # to catch (a SIGKILL would also kill the beater, but then the
        # process death is visible; a freeze is invisible without beats).
        beater = threading.Thread(target=beat, daemon=True)
        if not (fault and fault.get("freeze")):
            beater.start()
        try:
            send(("beat", key))            # instant first beat on dispatch
            spec = JobSpec.from_dict(spec_dict)
            if spec.trace_key != trace_key:
                # Imported here, so `repro serve` start-up does not load
                # the fast loop.
                from ..core.fastpath import release_views
                release_views()
                trace_key = spec.trace_key
            if fault:
                apply_fault(fault)
            result = execute_job(spec)
            send(("ok", key, attempt, result.to_dict()))
        except BaseException as error:     # ship *any* failure to the parent
            send(("err", key, attempt, f"{type(error).__name__}: {error}"))
        finally:
            stop_beating.set()
    conn.close()


# ----------------------------------------------------------- supervisor side

@dataclass
class _Attempt:
    key: str
    spec: JobSpec
    attempt: int              # 0-based attempt counter
    eligible_at: float        # monotonic time before which it must not start
    order: int                # canonical submission position


class _Slot:
    """One supervised worker seat (the process in it comes and goes)."""

    __slots__ = ("index", "process", "conn", "busy", "started_at",
                 "last_beat", "respawn_at", "consecutive_failures")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[Any] = None
        self.conn: Optional[Any] = None
        self.busy: Optional[_Attempt] = None
        self.started_at = 0.0
        self.last_beat = 0.0
        self.respawn_at = 0.0
        self.consecutive_failures = 0

    @property
    def live(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """Supervised pool executing :class:`JobSpec` batches."""

    def __init__(self, config: Optional[PoolConfig] = None,
                 telemetry: Optional[TelemetryHub] = None,
                 faults: Optional[Mapping[str, Sequence[Optional[Dict]]]]
                 = None) -> None:
        self.config = config or PoolConfig()
        self.telemetry = telemetry
        #: ``key -> per-attempt fault directives`` (chaos injection).
        self.faults = dict(faults) if faults else {}
        self._slots: List[_Slot] = []
        self._started = False
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:   # platform without fork: specs must pickle
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if self._started:
            raise ServiceError("worker pool already started")
        self._slots = [_Slot(index) for index in range(self.config.workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._started = True

    def stop(self) -> None:
        """Shut every worker down; forceful if they don't go quietly."""
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass     # already dead; reaped below
        for slot in self._slots:
            if slot.process is not None:
                slot.process.join(timeout=2)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=2)
                if slot.process.is_alive():   # pragma: no cover - stubborn
                    slot.process.kill()
                    slot.process.join(timeout=2)
            if slot.conn is not None:
                slot.conn.close()
            slot.process = None
            slot.conn = None
        self._started = False

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ----------------------------------------------------------- supervision

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Every worker forked from now on closes its copy of the parent's
        # end: a copy held by a worker would keep the pipe open after the
        # parent dies, and an idle worker would wait for jobs forever
        # instead of reading EOF and exiting.
        multiprocessing.util.register_after_fork(
            parent_conn, type(parent_conn).close)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config.heartbeat_interval_seconds),
            daemon=True)
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.busy = None
        slot.respawn_at = 0.0

    def _replace(self, slot: _Slot, reason: str, report: SweepReport) -> None:
        """Kill (if needed) and schedule a respawn with escalating backoff."""
        if slot.process is not None:
            if slot.process.is_alive():
                slot.process.kill()
            slot.process.join(timeout=5)
        if slot.conn is not None:
            slot.conn.close()
        slot.process = None
        slot.conn = None
        slot.busy = None
        delay = jittered_backoff(
            self.config.restart_backoff_seconds,
            self.config.restart_backoff_cap_seconds,
            slot.consecutive_failures, self.config.seed,
            f"worker-slot/{slot.index}")
        slot.consecutive_failures += 1
        slot.respawn_at = time.monotonic() + delay
        report.worker_restarts += 1
        if self.telemetry is not None:
            self.telemetry.emit(EventKind.WORKER_RESTART, worker=slot.index,
                                reason=reason,
                                restarts=report.worker_restarts)

    def _fault_for(self, key: str, attempt: int) -> Optional[Dict]:
        plan = self.faults.get(key)
        if plan is None or attempt >= len(plan):
            return None
        return plan[attempt]

    # -------------------------------------------------------------- batching

    def run_batch(self, assignments: Sequence[Tuple[str, JobSpec]],
                  on_result: Optional[ResultFn] = None
                  ) -> Tuple[Dict[str, SimulationResult], SweepReport]:
        """Execute ``(key, spec)`` assignments; returns ``(results, report)``.

        Results preserve canonical submission order; quarantined keys are
        simply absent (the report carries their error history).
        ``on_result(key, result)`` is called as each job completes, so a
        caller can persist results before the batch ends.
        """
        if not self._started:
            raise ServiceError("worker pool is not started")
        seen: Dict[str, JobSpec] = {}
        for key, spec in assignments:
            if key in seen:
                raise ServiceError(f"duplicate batch key {key!r}")
            seen[key] = spec

        cfg = self.config
        started = time.monotonic()
        report = SweepReport(total_jobs=len(assignments))
        completed: Dict[str, SimulationResult] = {}
        errors: Dict[str, List[str]] = {}
        pending: List[_Attempt] = [
            _Attempt(key=key, spec=spec, attempt=0, eligible_at=0.0,
                     order=index)
            for index, (key, spec) in enumerate(assignments)]

        def fail_attempt(attempt: _Attempt, message: str) -> None:
            history = errors.setdefault(attempt.key, [])
            history.append(message)
            if attempt.attempt < cfg.retries:
                delay = jittered_backoff(
                    cfg.retry_backoff_seconds,
                    cfg.retry_backoff_cap_seconds, attempt.attempt,
                    attempt.spec.seed, f"service/{attempt.key}")
                pending.append(_Attempt(
                    key=attempt.key, spec=attempt.spec,
                    attempt=attempt.attempt + 1,
                    eligible_at=time.monotonic() + delay,
                    order=attempt.order))
            else:
                report.quarantined.append(JobFailure(
                    job_id=attempt.key, attempts=len(history),
                    errors=history))
                if self.telemetry is not None:
                    self.telemetry.emit(EventKind.JOB_QUARANTINED,
                                        job=attempt.key,
                                        attempts=len(history))

        def record_success(attempt: _Attempt, payload: Dict) -> None:
            failed_before = len(errors.get(attempt.key, []))
            if failed_before:
                report.retried[attempt.key] = failed_before
            result = SimulationResult.from_dict(payload)
            completed[attempt.key] = result
            report.executed.append(attempt.key)
            if on_result is not None:
                on_result(attempt.key, result)

        while pending or any(slot.busy is not None for slot in self._slots):
            now = time.monotonic()
            progressed = False

            # Respawn replaced workers whose backoff has elapsed.
            for slot in self._slots:
                if slot.process is None and slot.respawn_at <= now:
                    self._spawn(slot)
                    progressed = True

            # Dispatch eligible attempts to idle live workers, canonical
            # order first so scheduling is as deterministic as timing allows.
            pending.sort(key=lambda a: (a.order, a.attempt))
            for slot in self._slots:
                if not pending or not slot.live or slot.busy is not None:
                    continue
                index = next((i for i, a in enumerate(pending)
                              if a.eligible_at <= now), None)
                if index is None:
                    break
                attempt = pending.pop(index)
                fault = self._fault_for(attempt.key, attempt.attempt)
                try:
                    assert slot.conn is not None
                    slot.conn.send(("job", attempt.key,
                                    attempt.spec.to_dict(), attempt.attempt,
                                    fault))
                except (BrokenPipeError, OSError):
                    # Worker died between polls; retry the dispatch after
                    # the slot respawns (the attempt itself never started).
                    pending.append(attempt)
                    self._replace(slot, "dispatch to dead worker", report)
                    continue
                slot.busy = attempt
                slot.started_at = now
                slot.last_beat = now
                progressed = True

            # Poll every slot: drain messages, then liveness and timers.
            for slot in self._slots:
                if slot.conn is None:
                    continue
                outcome = self._drain(slot)
                if outcome is not None:
                    progressed = True
                    status, attempt, payload = outcome
                    slot.busy = None
                    slot.consecutive_failures = 0
                    if status == "ok":
                        record_success(attempt, payload)
                    else:
                        fail_attempt(attempt, payload)
                    continue
                now = time.monotonic()
                if not slot.live:
                    attempt = slot.busy
                    exitcode = slot.process.exitcode \
                        if slot.process is not None else None
                    self._replace(slot, f"worker died (exit {exitcode})",
                                  report)
                    if attempt is not None:
                        fail_attempt(
                            attempt, "worker died without a result "
                            f"(exit code {exitcode}, attempt "
                            f"{attempt.attempt + 1})")
                    progressed = True
                elif slot.busy is not None:
                    attempt = slot.busy
                    if cfg.deadline_seconds is not None and \
                            now - slot.started_at > cfg.deadline_seconds:
                        self._replace(slot, "deadline exceeded", report)
                        fail_attempt(
                            attempt,
                            f"timed out after {cfg.deadline_seconds:g}s "
                            f"(deadline, attempt {attempt.attempt + 1})")
                        progressed = True
                    elif now - slot.last_beat > \
                            cfg.heartbeat_timeout_seconds:
                        self._replace(slot, "heartbeat lost", report)
                        fail_attempt(
                            attempt,
                            "heartbeat lost for "
                            f"{cfg.heartbeat_timeout_seconds:g}s "
                            f"(attempt {attempt.attempt + 1}); worker "
                            "presumed frozen")
                        progressed = True

            if not progressed:
                time.sleep(cfg.poll_interval_seconds)

        report.elapsed_seconds = time.monotonic() - started
        ordered = {key: completed[key]
                   for key, _spec in assignments if key in completed}
        return ordered, report

    def _drain(self, slot: _Slot
               ) -> Optional[Tuple[str, _Attempt, Any]]:
        """Consume queued worker messages; returns a completion, if any."""
        assert slot.conn is not None
        while True:
            try:
                if not slot.conn.poll():
                    return None
                message = slot.conn.recv()
            except (EOFError, OSError):
                return None       # death handled by the liveness check
            kind = message[0]
            if kind == "beat":
                slot.last_beat = time.monotonic()
                continue
            if kind in ("ok", "err") and slot.busy is not None:
                _, key, attempt_number, payload = message
                attempt = slot.busy
                if key != attempt.key or \
                        attempt_number != attempt.attempt:
                    # A straggler from an attempt we already wrote off
                    # (e.g. completion raced the deadline kill): ignore it —
                    # the retry is authoritative, double-recording is worse.
                    continue
                return message[0], attempt, payload
