"""Tests for the fault-tolerant sweep runner (checkpoint, retry, quarantine,
resume, and serial/parallel parity)."""

import dataclasses
import json

import pytest

from repro.common.errors import (
    CheckpointError,
    ProtocolError,
    ReproError,
    ReproWarning,
    RunnerError,
)
from repro.common.config import baseline_config
from repro.common.integrity import canonical_json
from repro.core import fastpath
from repro.core.experiment import (
    POLICY_LABELS,
    policy_config,
    run_policy_sweep,
    workload_trace,
)
from repro.core.metrics import SimulationResult
from repro.core.simulator import Simulator
from repro.runner import (
    CheckpointJournal,
    FaultPlan,
    JobSpec,
    RunnerConfig,
    SweepRunner,
    build_capacity_jobs,
    build_policy_jobs,
    execute_job,
)

WORKLOADS = ["bm-x64", "bm-lla"]
LABELS = ("baseline", "clasp")
INSTRUCTIONS = 1500


def _jobs(workloads=WORKLOADS, labels=LABELS, instructions=INSTRUCTIONS):
    return build_policy_jobs(workloads, labels, 2048, 2, instructions)


class TestJobs:
    def test_job_id(self):
        job = JobSpec(workload="bm-x64", design="rac")
        assert job.job_id == "bm-x64/rac"

    def test_canonical_order_is_workload_major(self):
        jobs = _jobs()
        assert [j.job_id for j in jobs] == [
            "bm-x64/baseline", "bm-x64/clasp",
            "bm-lla/baseline", "bm-lla/clasp"]

    def test_capacity_jobs_label(self):
        jobs = build_capacity_jobs(["bm-x64"], (2048, 65536), 1000)
        assert [j.label for j in jobs] == ["OC_2K", "OC_64K"]
        assert {j.design for j in jobs} == {"baseline"}

    def test_unknown_design_rejected_when_built(self):
        # A sweep validates its specs up front instead of quarantining
        # every job of a misspelled design at run time.
        with pytest.raises(ProtocolError, match="unknown design"):
            build_policy_jobs(["bm-x64"], ("baseline", "magic"), 2048, 2,
                              1000)
        assert issubclass(ProtocolError, ReproError)

    def test_execute_matches_direct_simulation(self):
        job = _jobs(["bm-x64"], ("baseline",))[0]
        trace = workload_trace("bm-x64", INSTRUCTIONS, seed=7)
        direct = Simulator(trace, policy_config("baseline", 2048),
                           "baseline").run()
        assert execute_job(job) == direct


class TestExecuteJobFastLoop:
    """Counters-only jobs, from sweeps and the service alike, run the fast
    serve loop: each result must equal a stepped, strict run of the same
    un-routed config byte for byte, warmup snapshot included."""

    WARMUP = 300

    def _stepped(self, job, config):
        config = dataclasses.replace(config,
                                     warmup_instructions=self.WARMUP)
        assert not config.fast_mode          # the un-routed baseline
        trace = workload_trace(job.workload, job.num_instructions,
                               seed=job.seed)
        return Simulator(trace, config, job.label, strict=True).run()

    @pytest.mark.parametrize("design", POLICY_LABELS)
    def test_policy_job_matches_stepped_loop(self, design):
        job = JobSpec(workload="bm-lla", design=design,
                      num_instructions=INSTRUCTIONS,
                      warmup_instructions=self.WARMUP)
        fast = execute_job(job)
        stepped = self._stepped(job, policy_config(design, 2048, 2))
        assert canonical_json(fast.to_dict()) == \
            canonical_json(stepped.to_dict())

    def test_capacity_job_matches_stepped_loop(self):
        job = build_capacity_jobs(["bm-lla"], (1024,), INSTRUCTIONS,
                                  warmup_instructions=self.WARMUP)[0]
        fast = execute_job(job)
        stepped = self._stepped(job, baseline_config(1024))
        assert canonical_json(fast.to_dict()) == \
            canonical_json(stepped.to_dict())

    def test_counters_only_job_stores_bit_identical_result(self):
        job = JobSpec(workload="bm-x64", design="clasp",
                      num_instructions=INSTRUCTIONS,
                      warmup_instructions=self.WARMUP)
        fast = execute_job(job)
        stepped = self._stepped(job, policy_config("clasp", 2048, 2))
        assert canonical_json(fast.to_dict()) == \
            canonical_json(stepped.to_dict())

    def test_counters_only_job_never_steps(self, monkeypatch):
        def refuse(self):
            raise AssertionError("counters-only job drove the stepped loop")
        monkeypatch.setattr(Simulator, "steps", refuse)
        execute_job(_jobs(["bm-x64"], ("rac",))[0])

    def test_sweep_keeps_only_the_current_traces_views(self):
        # Sweeps are workload-major, so the runner drops earlier traces'
        # views when the trace changes.
        cached = []

        def progress(job, result):
            cached.append((job, list(fastpath._VIEW_CACHE.keys())))

        SweepRunner(RunnerConfig(), progress=progress).run(_jobs())
        assert len(cached) == 4
        for job, traces in cached:
            assert traces == [workload_trace(job.workload,
                                             job.num_instructions,
                                             seed=job.seed)]

    def test_views_outlive_a_switch_of_trace(self):
        # execute_job releases nothing: a service worker may be handed
        # specs of several workloads in turn, so a view stays cached as
        # long as its trace does.
        jobs = [JobSpec(workload=workload, num_instructions=INSTRUCTIONS)
                for workload in ("bm-x64", "bm-lla")]
        for job in jobs:
            execute_job(job)
        traces = [workload_trace(job.workload, INSTRUCTIONS, seed=7)
                  for job in jobs]
        assert all(trace in fastpath._VIEW_CACHE for trace in traces)

    def test_finished_sweep_keeps_no_views(self):
        results, _ = SweepRunner(RunnerConfig()).run(_jobs())
        assert len(results) == 4 and len(fastpath._VIEW_CACHE) == 0

    def test_telemetry_job_keeps_stepped_loop(self):
        job = dataclasses.replace(_jobs(["bm-x64"], ("rac",))[0],
                                  telemetry=True)
        assert execute_job(job).telemetry_events


class TestResultRoundTrip:
    def test_dict_round_trip_equality(self):
        result = execute_job(JobSpec(workload="bm-x64", design="f-pwac",
                                     num_instructions=4000))
        payload = json.loads(json.dumps(result.to_dict()))
        assert SimulationResult.from_dict(payload) == result

    def test_round_trip_preserves_derived_metrics(self):
        result = execute_job(JobSpec(workload="bm-x64",
                                     num_instructions=4000))
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored.upc == result.upc
        assert restored.decoder_power == result.decoder_power
        assert restored.entry_size_histogram.mean() == \
            result.entry_size_histogram.mean()


class TestCheckpointJournal:
    def _result(self, workload="w", label="c"):
        result = SimulationResult(workload=workload, config_label=label)
        result.cycles = 123
        result.uops = 456
        return result

    def test_record_and_load(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result("w", "a"))
        journal.record("w/b", self._result("w", "b"))
        loaded = CheckpointJournal(tmp_path).load()
        assert set(loaded) == {"w/a", "w/b"}
        assert loaded["w/a"].cycles == 123

    def test_load_missing_is_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "nope").load() == {}

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result())
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"version":1,"job_id":"w/b","resu')   # torn write
        with pytest.warns(ReproWarning, match="trailing record"):
            loaded = CheckpointJournal(tmp_path).load()
        assert set(loaded) == {"w/a"}

    def test_truncation_mid_record_recovers_and_journal_stays_usable(
            self, tmp_path):
        """A record cut mid-write is dropped; the journal keeps working."""
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result("w", "a"))
        intact_size = journal.path.stat().st_size
        journal.record("w/b", self._result("w", "b"))
        full_size = journal.path.stat().st_size
        # Cut the second record mid-line, as a crash during write would.
        with open(journal.path, "r+b") as handle:
            handle.truncate(intact_size + (full_size - intact_size) // 2)
        with pytest.warns(ReproWarning, match="trailing record"):
            loaded = CheckpointJournal(tmp_path).load()
        assert set(loaded) == {"w/a"}
        # Recovery physically truncated the torn bytes, so appends after
        # resume produce a clean journal (no warning on the next load).
        journal2 = CheckpointJournal(tmp_path)
        journal2.record("w/b", self._result("w", "b"))
        reloaded = CheckpointJournal(tmp_path).load()
        assert set(reloaded) == {"w/a", "w/b"}

    def test_bitrot_in_trailing_record_recovers(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result("w", "a"))
        journal.record("w/b", self._result("w", "b"))
        raw = bytearray(journal.path.read_bytes())
        raw[-10] ^= 0x04        # flip one bit inside the last record
        journal.path.write_bytes(bytes(raw))
        with pytest.warns(ReproWarning, match="trailing record"):
            loaded = CheckpointJournal(tmp_path).load()
        assert set(loaded) == {"w/a"}

    def test_recovery_emits_checkpoint_recovered_event(self, tmp_path):
        from repro.telemetry import TelemetryHub
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result())
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('torn')
        hub = TelemetryHub(categories=("service",))
        with pytest.warns(ReproWarning):
            CheckpointJournal(tmp_path, telemetry=hub).load()
        assert hub.summary() == {"checkpoint_recovered": 1}

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = CheckpointJournal(tmp_path)
        journal.record("w/a", self._result())
        good = journal.path.read_text(encoding="utf-8")
        journal.path.write_text("garbage\n" + good, encoding="utf-8")
        with pytest.raises(CheckpointError):
            CheckpointJournal(tmp_path).load()

    def test_version_mismatch_raises(self, tmp_path):
        import zlib
        journal = CheckpointJournal(tmp_path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"version": 99, "job_id": "w/a", "result": {}},
                          sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        line = json.dumps({"body": body, "crc": crc},
                          separators=(",", ":"))
        journal.path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError):
            journal.load()


class TestJitteredBackoff:
    def test_deterministic_for_same_inputs(self):
        from repro.runner import jittered_backoff
        a = jittered_backoff(0.1, 5.0, 2, seed=7, stream="backoff/w/a")
        b = jittered_backoff(0.1, 5.0, 2, seed=7, stream="backoff/w/a")
        assert a == b

    def test_varies_across_attempts_jobs_and_seeds(self):
        from repro.runner import jittered_backoff
        base = jittered_backoff(0.1, 5.0, 2, seed=7, stream="backoff/w/a")
        assert jittered_backoff(0.1, 5.0, 3, seed=7,
                                stream="backoff/w/a") != base
        assert jittered_backoff(0.1, 5.0, 2, seed=7,
                                stream="backoff/w/b") != base
        assert jittered_backoff(0.1, 5.0, 2, seed=8,
                                stream="backoff/w/a") != base

    def test_jitter_stays_within_half_to_full_nominal(self):
        from repro.runner import jittered_backoff
        for attempt in range(6):
            nominal = min(0.1 * (2 ** attempt), 5.0)
            delay = jittered_backoff(0.1, 5.0, attempt, seed=3,
                                     stream="s")
            assert nominal * 0.5 <= delay < nominal

    def test_cap_bounds_the_exponential(self):
        from repro.runner import jittered_backoff
        assert jittered_backoff(1.0, 2.0, 50, seed=1, stream="s") < 2.0

    def test_zero_base_is_zero(self):
        from repro.runner import jittered_backoff
        assert jittered_backoff(0.0, 5.0, 3, seed=1, stream="s") == 0.0

    def test_executor_backoff_is_deterministic_per_job(self):
        from repro.runner.executor import SweepRunner
        runner = SweepRunner(RunnerConfig(jobs=1))
        job_a, job_b = _jobs(["bm-x64"], ("baseline", "clasp"))[:2]
        assert runner._backoff_delay(job_a, 0) == \
            runner._backoff_delay(job_a, 0)
        assert runner._backoff_delay(job_a, 0) != \
            runner._backoff_delay(job_b, 0)
        assert runner._backoff_delay(job_a, 0) != \
            runner._backoff_delay(job_a, 1)


class TestRunnerConfigValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(RunnerError):
            RunnerConfig(jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(RunnerError):
            RunnerConfig(retries=-1)

    def test_rejects_resume_without_checkpoint(self):
        with pytest.raises(RunnerError):
            RunnerConfig(resume=True)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(RunnerError):
            RunnerConfig(timeout_seconds=0)


class TestSerialRunner:
    def test_duplicate_job_ids_rejected(self):
        job = _jobs(["bm-x64"], ("baseline",))[0]
        with pytest.raises(RunnerError):
            SweepRunner(RunnerConfig()).run([job, job])

    def test_crash_retry_then_success(self):
        jobs = _jobs(["bm-x64"], ("baseline",))
        plan = FaultPlan(crash={"bm-x64/baseline": 2})
        runner = SweepRunner(RunnerConfig(retries=2, backoff_seconds=0.0),
                             fault_plan=plan)
        results, report = runner.run(jobs)
        assert "bm-x64/baseline" in results
        assert report.ok
        assert report.retried == {"bm-x64/baseline": 2}

    def test_fault_plan_schedules_crashes_before_hangs(self):
        plan = FaultPlan(crash={"a": 1, "b": 2}, hang={"a": 3, "b": 1},
                         hang_seconds=5.0)
        assert plan.schedule(["a", "b", "c"]) == {
            "a": [{"crash": True}, {"hang": 5.0}, {"hang": 5.0}],
            "b": [{"crash": True}, {"crash": True}]}

    def test_exhausted_retries_quarantine(self):
        jobs = _jobs(["bm-x64"], LABELS)
        plan = FaultPlan(crash={"bm-x64/clasp": 99})
        runner = SweepRunner(RunnerConfig(retries=1, backoff_seconds=0.0),
                             fault_plan=plan)
        results, report = runner.run(jobs)
        # The sweep completed with the healthy job despite the sick one.
        assert set(results) == {"bm-x64/baseline"}
        assert not report.ok
        (failure,) = report.quarantined
        assert failure.job_id == "bm-x64/clasp"
        assert failure.attempts == 2
        assert all("InjectedFaultError" in error for error in failure.errors)
        assert "QUARANTINED bm-x64/clasp" in report.describe()

    def test_checkpoint_resume_skips_completed(self, tmp_path):
        jobs = _jobs(["bm-x64"], LABELS)
        plan = FaultPlan(crash={"bm-x64/clasp": 99})
        first = SweepRunner(
            RunnerConfig(retries=0, backoff_seconds=0.0,
                         checkpoint_dir=tmp_path),
            fault_plan=plan)
        results, report = first.run(jobs)
        assert set(results) == {"bm-x64/baseline"}

        second = SweepRunner(RunnerConfig(checkpoint_dir=tmp_path,
                                          resume=True))
        results2, report2 = second.run(jobs)
        assert set(results2) == {"bm-x64/baseline", "bm-x64/clasp"}
        assert report2.resumed == ["bm-x64/baseline"]     # not re-run
        assert report2.executed == ["bm-x64/clasp"]       # only the missing one
        # The resumed result is the journaled one, bit-for-bit.
        assert results2["bm-x64/baseline"] == results["bm-x64/baseline"]

    def test_existing_journal_without_resume_rejected(self, tmp_path):
        jobs = _jobs(["bm-x64"], ("baseline",))
        SweepRunner(RunnerConfig(checkpoint_dir=tmp_path)).run(jobs)
        with pytest.raises(RunnerError):
            SweepRunner(RunnerConfig(checkpoint_dir=tmp_path)).run(jobs)


class TestParallelRunner:
    def test_parallel_matches_serial_bit_identical(self):
        jobs = _jobs()
        serial, _ = SweepRunner(RunnerConfig(jobs=1)).run(jobs)
        parallel, report = SweepRunner(RunnerConfig(jobs=2)).run(jobs)
        assert report.ok
        assert list(parallel) == list(serial)     # canonical order preserved
        assert parallel == serial                 # results bit-identical

    def test_fault_injected_sweep_quarantines_and_resumes(self, tmp_path):
        """The acceptance scenario: one job crashes twice (heals via retry),
        one job hangs past its timeout every attempt (quarantined); the
        sweep completes, reports, and --resume re-runs only what's missing."""
        jobs = _jobs()
        plan = FaultPlan(crash={"bm-x64/clasp": 2},
                         hang={"bm-lla/baseline": 99}, hang_seconds=30.0)
        runner = SweepRunner(
            RunnerConfig(jobs=2, retries=2, backoff_seconds=0.0,
                         timeout_seconds=1.0, checkpoint_dir=tmp_path),
            fault_plan=plan)
        results, report = runner.run(jobs)

        assert set(results) == {"bm-x64/baseline", "bm-x64/clasp",
                                "bm-lla/clasp"}
        assert report.retried == {"bm-x64/clasp": 2}
        (failure,) = report.quarantined
        assert failure.job_id == "bm-lla/baseline"
        assert failure.attempts == 3
        assert all("timed out" in error for error in failure.errors)

        # Resume (faults gone, as after fixing the cause): only the
        # quarantined job is re-run; everything else comes from the journal.
        resumed = SweepRunner(RunnerConfig(jobs=2, checkpoint_dir=tmp_path,
                                           resume=True))
        results2, report2 = resumed.run(jobs)
        assert report2.ok
        assert report2.executed == ["bm-lla/baseline"]
        assert sorted(report2.resumed) == sorted(results)
        assert set(results2) == {job.job_id for job in jobs}
        for job_id, result in results.items():
            assert results2[job_id] == result


    def test_parallel_journal_holds_the_serial_records(self, tmp_path):
        # The pool journals each result as it completes, so a parallel
        # journal's order varies from run to run: compare it as a set.
        jobs = _jobs()
        journals = {}
        for workers in (1, 2):
            directory = tmp_path / f"jobs-{workers}"
            SweepRunner(RunnerConfig(jobs=workers,
                                     checkpoint_dir=directory)).run(jobs)
            lines = (directory / "journal.jsonl").read_text().splitlines()
            journals[workers] = sorted(lines)
        assert len(journals[1]) == len(jobs)
        assert journals[2] == journals[1]


class TestSweepIntegration:
    def test_policy_sweep_parallel_tables_identical(self):
        kwargs = dict(workloads=["bm-x64"], labels=LABELS,
                      num_instructions=2000)
        serial = run_policy_sweep(**kwargs)
        parallel = run_policy_sweep(runner=RunnerConfig(jobs=2), **kwargs)
        table_s = serial.normalized(lambda r: r.upc, "baseline")
        table_p = parallel.normalized(lambda r: r.upc, "baseline")
        assert table_s == table_p     # bit-identical aggregate tables

    @pytest.mark.parametrize("engine", ["synthetic", "replay"])
    def test_parallel_sweep_builds_no_trace_in_the_parent(
            self, engine, tmp_path, monkeypatch):
        """Pool workers build their own traces, so a trace built in the
        parent would be work no job reuses (and workload_trace never caches
        replay traces at all)."""
        from repro.core import experiment
        from repro.workloads import tracefile
        kwargs = dict(workloads=WORKLOADS, labels=("baseline", "clasp", "rac"),
                      num_instructions=INSTRUCTIONS)
        if engine == "replay":
            path = tmp_path / "bm-x64.uoptrace"
            tracefile.pack_trace(workload_trace("bm-x64", INSTRUCTIONS), path)
            kwargs.update(workloads=["bm-x64"], engine="replay",
                          engine_params={"path": str(path)})
        serial = run_policy_sweep(**kwargs)
        experiment.clear_trace_cache()
        built = []
        create_engine = experiment.create_engine

        def counting_create_engine(*args, **kwargs):
            built.append(args)
            return create_engine(*args, **kwargs)

        # Pool workers count in their own copy of the list; only the
        # parent's trace builds reach this one.
        monkeypatch.setattr(experiment, "create_engine",
                            counting_create_engine)
        parallel = run_policy_sweep(runner=RunnerConfig(jobs=2), **kwargs)
        assert parallel.report.ok
        assert built == []
        assert parallel.results == serial.results

    def test_sweep_report_attached(self):
        sweep = run_policy_sweep(workloads=["bm-x64"], labels=("baseline",),
                                 num_instructions=1500)
        assert sweep.report is not None
        assert sweep.report.ok
        assert sweep.report.total_jobs == 1

    def test_sweep_with_quarantine_is_partial_but_usable(self):
        plan = FaultPlan(crash={"bm-x64/clasp": 99})
        sweep = run_policy_sweep(
            workloads=WORKLOADS, labels=LABELS,
            num_instructions=INSTRUCTIONS,
            runner=RunnerConfig(retries=0, backoff_seconds=0.0),
            fault_plan=plan)
        assert not sweep.report.ok
        with pytest.raises(ReproError):
            sweep.metric("bm-x64", "clasp", lambda r: r.upc)
        table = sweep.normalized(lambda r: r.upc, "baseline")
        assert "clasp" not in table["bm-x64"]
        assert "clasp" in table["bm-lla"]
        means = sweep.mean_over_workloads(table)
        assert set(means) == {"baseline", "clasp"}
