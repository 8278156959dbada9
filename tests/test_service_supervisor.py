"""Tests for the supervised worker pool: retries, restarts, deadlines,
heartbeats, and quarantine — with injected process-level faults."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.common.errors import ServiceError
from repro.core import fastpath
from repro.runner.executor import SweepReport
from repro.runner.job import JobSpec, execute_job
from repro.service.supervisor import PoolConfig, WorkerPool
from repro.telemetry import TelemetryHub

INSTRUCTIONS = 1200


def _spec(workload="bm-x64", design="baseline"):
    return JobSpec(workload=workload, design=design,
                   num_instructions=INSTRUCTIONS, seed=7)


def _config(**overrides):
    base = dict(workers=2, retries=2, deadline_seconds=30.0,
                heartbeat_interval_seconds=0.05,
                heartbeat_timeout_seconds=1.0,
                retry_backoff_seconds=0.01, restart_backoff_seconds=0.01,
                seed=7)
    base.update(overrides)
    return PoolConfig(**base)


def _run(assignments, faults=None, hub=None, **config_overrides):
    with WorkerPool(_config(**config_overrides), telemetry=hub,
                    faults=faults) as pool:
        return pool.run_batch(assignments)


class TestPoolConfigValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ServiceError):
            PoolConfig(workers=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ServiceError):
            PoolConfig(retries=-1)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ServiceError):
            PoolConfig(deadline_seconds=0.0)

    def test_rejects_heartbeat_timeout_inside_jitter_band(self):
        with pytest.raises(ServiceError, match="twice the interval"):
            PoolConfig(heartbeat_interval_seconds=0.5,
                       heartbeat_timeout_seconds=0.6)


class TestBatchExecution:
    def test_results_match_inline_execution(self):
        specs = [_spec(design="baseline"), _spec(design="clasp")]
        assignments = [(spec.key, spec) for spec in specs]
        results, report = _run(assignments)
        assert report.ok and len(report.executed) == 2
        assert list(results) == [spec.key for spec in specs]
        for spec in specs:
            assert results[spec.key] == execute_job(spec)

    def test_run_batch_requires_start(self):
        pool = WorkerPool(_config())
        with pytest.raises(ServiceError, match="not started"):
            pool.run_batch([(_spec().key, _spec())])

    def test_duplicate_keys_rejected(self):
        spec = _spec()
        with WorkerPool(_config()) as pool:
            with pytest.raises(ServiceError, match="duplicate"):
                pool.run_batch([(spec.key, spec), (spec.key, spec)])

    def test_double_start_rejected(self):
        with WorkerPool(_config()) as pool:
            with pytest.raises(ServiceError, match="already started"):
                pool.start()

    def test_empty_batch_is_trivially_complete(self):
        results, report = _run([])
        assert results == {} and report.ok and report.total_jobs == 0


class TestFaultRecovery:
    def test_crash_is_retried_to_success(self):
        spec = _spec()
        results, report = _run([(spec.key, spec)],
                               faults={spec.key: [{"crash": True}]})
        assert report.ok
        assert report.retried == {spec.key: 1}
        assert results[spec.key] == execute_job(spec)

    def test_exhausted_retries_quarantine_with_history(self):
        spec = _spec()
        hub = TelemetryHub(categories=("service",))
        results, report = _run(
            [(spec.key, spec)], retries=1, hub=hub,
            faults={spec.key: [{"crash": True}, {"crash": True}]})
        assert not report.ok and spec.key not in results
        (failure,) = report.quarantined
        assert failure.job_id == spec.key and failure.attempts == 2
        assert all("injected" in error for error in failure.errors)
        assert hub.summary().get("job_quarantined") == 1

    def test_sigkill_mid_job_restarts_worker_and_completes(self):
        spec = _spec()
        hub = TelemetryHub(categories=("service",))
        results, report = _run([(spec.key, spec)], hub=hub,
                               faults={spec.key: [{"kill": True}]})
        assert report.ok
        assert report.worker_restarts >= 1
        assert hub.summary().get("worker_restart", 0) >= 1
        assert results[spec.key] == execute_job(spec)
        assert report.retried == {spec.key: 1}

    def test_respawned_worker_dies_on_sigterm(self):
        # `repro serve` maps SIGTERM to KeyboardInterrupt while its pool
        # runs, so workers respawned meanwhile inherit that handler.
        spec = _spec()
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            with WorkerPool(_config(workers=1),
                            faults={spec.key: [{"kill": True}]}) as pool:
                _, report = pool.run_batch([(spec.key, spec)])
                assert report.ok and report.worker_restarts == 1
                process = pool._slots[0].process
                os.kill(process.pid, signal.SIGTERM)
                process.join(timeout=10)
                assert process.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_hang_past_deadline_is_killed_and_retried(self):
        spec = _spec()
        results, report = _run(
            [(spec.key, spec)], deadline_seconds=0.6,
            faults={spec.key: [{"hang": 5.0}]})
        assert report.ok
        assert report.worker_restarts >= 1
        assert report.retried == {spec.key: 1}
        assert results[spec.key] == execute_job(spec)

    def test_frozen_worker_is_detected_by_heartbeat_monitor(self):
        spec = _spec()
        results, report = _run(
            [(spec.key, spec)], heartbeat_timeout_seconds=0.5,
            heartbeat_interval_seconds=0.05,
            faults={spec.key: [{"freeze": 10.0}]})
        assert report.ok
        assert report.worker_restarts >= 1
        assert results[spec.key] == execute_job(spec)

    def test_faulted_batch_results_are_bit_identical_to_clean(self):
        specs = [_spec(design="baseline"), _spec(design="clasp"),
                 _spec(workload="bm-lla")]
        assignments = [(spec.key, spec) for spec in specs]
        clean, clean_report = _run(assignments)
        faulted, faulted_report = _run(
            assignments,
            faults={specs[0].key: [{"kill": True}],
                    specs[2].key: [{"crash": True}]})
        assert clean_report.ok and faulted_report.ok
        assert {k: r.to_dict() for k, r in clean.items()} == \
            {k: r.to_dict() for k, r in faulted.items()}


class TestWorkerViews:
    def test_workers_release_views_when_the_trace_changes(
            self, tmp_path, monkeypatch):
        # Patched before start(), so the forked worker inherits the
        # counting wrapper; each call appends a line to a file the parent
        # can read.  A worker that never releases makes no calls.
        calls = tmp_path / "release_calls"
        release = fastpath.release_views

        def counting_release(*args, **kwargs):
            with open(calls, "a") as log:
                log.write("release\n")
            return release(*args, **kwargs)

        monkeypatch.setattr(fastpath, "release_views", counting_release)
        specs = [_spec(design="baseline"), _spec(design="clasp"),
                 _spec(workload="bm-lla")]           # traces A, A, B
        results, report = _run([(spec.key, spec) for spec in specs],
                               workers=1)
        assert report.ok
        assert calls.read_text().splitlines() == ["release"] * 2
        for spec in specs:
            assert results[spec.key] == execute_job(spec)


_ORPHAN_SCRIPT = """
import os, signal, sys
from repro.service.supervisor import PoolConfig, WorkerPool
pool = WorkerPool(PoolConfig(workers=2))
pool.start()
with open(sys.argv[1], "w") as out:
    out.write(" ".join(str(slot.process.pid) for slot in pool._slots))
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to see orphaned workers")
def test_idle_workers_exit_when_the_parent_is_killed(tmp_path):
    pids_file = tmp_path / "pids"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    parent = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(pids_file)], env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    assert parent.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in pids_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    try:
        while any(_running(pid) for pid in pids) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in pids)
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


class TestBatchReport:
    def test_describe_mentions_quarantine(self):
        spec = _spec()
        _results, report = _run(
            [(spec.key, spec)], retries=0,
            faults={spec.key: [{"crash": True}]})
        text = report.describe()
        assert "QUARANTINED" in text and spec.key in text

    def test_describe_counts_worker_restarts(self):
        spec = _spec()
        _results, report = _run([(spec.key, spec)],
                                faults={spec.key: [{"kill": True}]})
        assert isinstance(report, SweepReport)
        assert f"{report.worker_restarts} worker restart(s)" in \
            report.describe()

    def test_default_report_is_ok(self):
        assert SweepReport().ok
