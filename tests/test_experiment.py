"""Tests for the experiment harness (sweeps, normalization, aggregation)."""

import pytest

from repro.common.config import CompactionPolicy
from repro.common.errors import ReproError
import repro.core.experiment as experiment
from repro.core.experiment import (
    CAPACITY_SWEEP,
    POLICY_LABELS,
    SweepResult,
    clear_trace_cache,
    policy_config,
    run_capacity_sweep,
    run_policy_sweep,
    workload_trace,
)
from repro.core.metrics import SimulationResult
from repro.runner.job import JobSpec, execute_job


class TestPolicyConfig:
    def test_baseline(self):
        cfg = policy_config("baseline", 4096)
        assert not cfg.uop_cache.clasp
        assert cfg.uop_cache.capacity_uops == 4096

    def test_clasp(self):
        cfg = policy_config("clasp")
        assert cfg.uop_cache.clasp
        assert cfg.uop_cache.compaction is CompactionPolicy.NONE

    @pytest.mark.parametrize("label,policy", [
        ("rac", CompactionPolicy.RAC),
        ("pwac", CompactionPolicy.PWAC),
        ("f-pwac", CompactionPolicy.F_PWAC),
    ])
    def test_compaction_labels(self, label, policy):
        cfg = policy_config(label)
        assert cfg.uop_cache.compaction is policy
        assert cfg.uop_cache.clasp   # paper: compaction results enable CLASP

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            policy_config("magic")

    def test_max_entries_propagates(self):
        cfg = policy_config("rac", max_entries_per_line=3)
        assert cfg.uop_cache.max_entries_per_line == 3


class TestTraceCache:
    def test_trace_memoised(self):
        a = workload_trace("bm-x64", 2000)
        b = workload_trace("bm-x64", 2000)
        assert a is b

    def test_different_lengths_differ(self):
        a = workload_trace("bm-x64", 2000)
        b = workload_trace("bm-x64", 3000)
        assert a is not b

    def test_different_seeds_differ(self):
        a = workload_trace("bm-x64", 2000, seed=7)
        b = workload_trace("bm-x64", 2000, seed=8)
        assert a is not b

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(experiment, "_TRACE_CACHE_MAX_ENTRIES", 2)
        clear_trace_cache()
        for seed in range(4):
            workload_trace("bm-x64", 1000, seed=seed)
        assert len(experiment._trace_cache) == 2
        # Most recently used entries survive.
        assert ("bm-x64", 1000, 3, "synthetic", ()) in \
            experiment._trace_cache
        clear_trace_cache()


def _result(workload, label, upc, power=1.0):
    result = SimulationResult(workload=workload, config_label=label)
    result.cycles = 1000
    result.uops = int(upc * 1000)
    result.decoder_report = None
    return result


class TestSweepResult:
    def _sweep(self):
        sweep = SweepResult()
        sweep.add(_result("w1", "a", 1.0))
        sweep.add(_result("w1", "b", 1.2))
        sweep.add(_result("w2", "a", 2.0))
        sweep.add(_result("w2", "b", 2.2))
        return sweep

    def test_workloads_and_labels(self):
        sweep = self._sweep()
        assert sweep.workloads() == ["w1", "w2"]
        assert sweep.labels() == ["a", "b"]

    def test_normalized(self):
        sweep = self._sweep()
        table = sweep.normalized(lambda r: r.upc, "a")
        assert table["w1"]["a"] == pytest.approx(1.0)
        assert table["w1"]["b"] == pytest.approx(1.2)
        assert table["w2"]["b"] == pytest.approx(1.1)

    def test_improvement_percent(self):
        sweep = self._sweep()
        table = sweep.improvement_percent(lambda r: r.upc, "a")
        assert table["w1"]["b"] == pytest.approx(20.0)

    def test_mean_over_workloads(self):
        sweep = self._sweep()
        normalized = sweep.normalized(lambda r: r.upc, "a")
        means = sweep.mean_over_workloads(normalized)
        assert means["b"] == pytest.approx((1.2 + 1.1) / 2)

    def test_geometric_mean(self):
        sweep = self._sweep()
        normalized = sweep.normalized(lambda r: r.upc, "a")
        means = sweep.mean_over_workloads(normalized, geometric=True)
        assert means["b"] == pytest.approx((1.2 * 1.1) ** 0.5)


class TestPartialSweepResult:
    """Behaviour when jobs were quarantined (missing cells in the table)."""

    def _partial_sweep(self):
        # w2 is missing label "b" (e.g. its job was quarantined).
        sweep = SweepResult()
        sweep.add(_result("w1", "a", 1.0))
        sweep.add(_result("w1", "b", 1.2))
        sweep.add(_result("w2", "a", 2.0))
        return sweep

    def test_metric_names_missing_workload(self):
        sweep = self._partial_sweep()
        with pytest.raises(ReproError, match="'w3'"):
            sweep.metric("w3", "a", lambda r: r.upc)

    def test_metric_names_missing_label(self):
        sweep = self._partial_sweep()
        with pytest.raises(ReproError, match="'b'"):
            sweep.metric("w2", "b", lambda r: r.upc)

    def test_metric_present_cell_still_works(self):
        sweep = self._partial_sweep()
        assert sweep.metric("w2", "a", lambda r: r.upc) == pytest.approx(2.0)

    def test_normalized_missing_reference_raises(self):
        sweep = self._partial_sweep()
        with pytest.raises(ReproError, match="'b'.*'w2'"):
            sweep.normalized(lambda r: r.upc, "b")

    def test_normalized_skip_missing_drops_row(self):
        sweep = self._partial_sweep()
        table = sweep.normalized(lambda r: r.upc, "b", skip_missing=True)
        assert list(table) == ["w1"]

    def test_labels_are_the_union(self):
        sweep = self._partial_sweep()
        assert sweep.labels() == ["a", "b"]

    def test_mean_over_workloads_tolerates_partial_table(self):
        sweep = self._partial_sweep()
        table = sweep.normalized(lambda r: r.upc, "a")
        means = sweep.mean_over_workloads(table)
        assert means["a"] == pytest.approx(1.0)
        assert means["b"] == pytest.approx(1.2)   # only w1 has it

    def test_mean_over_workloads_omits_empty_labels(self):
        sweep = self._partial_sweep()
        means = sweep.mean_over_workloads({"w1": {"a": 1.0}, "w2": {"a": 2.0}})
        assert set(means) == {"a"}


class TestRealSweeps:
    """Small end-to-end sweeps on one workload (kept tiny for test speed)."""

    def test_capacity_sweep(self):
        sweep = run_capacity_sweep(workloads=["bm-x64"],
                                   capacities=(2048, 8192),
                                   num_instructions=4000)
        assert set(sweep.labels()) == {"OC_2K", "OC_8K"}
        r2k = sweep.results["bm-x64"]["OC_2K"]
        r8k = sweep.results["bm-x64"]["OC_8K"]
        assert r8k.oc_fetch_ratio >= r2k.oc_fetch_ratio * 0.99

    def test_policy_sweep(self):
        sweep = run_policy_sweep(workloads=["bm-x64"],
                                 labels=("baseline", "f-pwac"),
                                 num_instructions=4000)
        base = sweep.results["bm-x64"]["baseline"]
        fpwac = sweep.results["bm-x64"]["f-pwac"]
        assert fpwac.oc_fetch_ratio >= base.oc_fetch_ratio * 0.99

    def test_run_single(self):
        result = execute_job(JobSpec(workload="bm-x64",
                                     num_instructions=4000))
        assert result.instructions == 4000

    def test_run_single_seed_changes_trace(self):
        a = execute_job(JobSpec(workload="bm-x64", num_instructions=2000,
                                seed=7))
        b = execute_job(JobSpec(workload="bm-x64", num_instructions=2000,
                                seed=11))
        assert a != b   # different dynamic traces, different counters

    def test_sweep_seed_is_plumbed_through(self):
        s7 = run_policy_sweep(workloads=["bm-x64"], labels=("baseline",),
                              num_instructions=2000, seed=7)
        s7_again = run_policy_sweep(workloads=["bm-x64"], labels=("baseline",),
                                    num_instructions=2000, seed=7)
        s11 = run_policy_sweep(workloads=["bm-x64"], labels=("baseline",),
                               num_instructions=2000, seed=11)
        r = lambda s: s.results["bm-x64"]["baseline"]
        assert r(s7) == r(s7_again)
        assert r(s7) != r(s11)
