"""Tests for the differential-testing oracle (repro.oracle)."""

import dataclasses

import pytest

from repro.common.config import UopCacheConfig
from repro.core.experiment import POLICY_LABELS, policy_config, workload_trace
from repro.core.simulator import Simulator
from repro.isa.uop import uops_storage_bytes
from repro.oracle import (
    DifferentialRunner,
    OracleDivergence,
    ReferenceAccumulator,
    ReferenceFrontEnd,
    ReferenceUopCache,
    resolve_branch_outcomes,
)
from repro.oracle.runner import _first_mismatch
from repro.uopcache.cache import UopCache
from repro.workloads.suite import WORKLOAD_NAMES


def _small_trace(workload="bm-x64", n=2000, seed=7):
    return workload_trace(workload, n, seed=seed)


def _uop(pc, length=4, has_imm=False):
    from repro.isa.uop import Uop, UopKind
    return Uop(pc=pc, inst_length=length, kind=UopKind.ALU,
               slot=0, num_slots=1, has_imm_disp=has_imm)


class TestReferenceUopCache:
    def test_starts_empty(self):
        cache = ReferenceUopCache(UopCacheConfig())
        assert cache.lookup(0x1000) is None
        assert cache.counters["misses"] == 1
        assert cache.counters["hits"] == 0
        assert all(not tags for tags in cache.resident_tags())

    def test_mirrors_optimized_on_identical_fill_stream(self):
        """Feed both caches the same sealed-entry stream via a real run."""
        trace = _small_trace()
        config = policy_config("f-pwac", 256)
        sim = Simulator(trace, config, "f-pwac")
        windows = __import__(
            "repro.branch.window", fromlist=["PredictionWindowBuilder"]
        ).PredictionWindowBuilder(
            trace, line_bytes=config.memory.l1i.line_bytes,
            config=config.branch).all_windows()
        outcomes = resolve_branch_outcomes(trace, config)
        ref = ReferenceFrontEnd(trace, config, windows, outcomes)
        for _ in sim.steps():
            pass
        for _ in ref.steps():
            pass
        assert ref.resident_tags() == sim.uop_cache.resident_tags()


class TestReferenceAccumulator:
    def _accumulator(self, **overrides):
        config = dataclasses.replace(UopCacheConfig(), **overrides)
        return ReferenceAccumulator(config)

    def test_pw_id_captured_at_entry_open_not_seal(self):
        """An entry that stays open across begin() calls keeps the PW id
        current when its first instruction was pushed."""
        acc = self._accumulator()
        acc.begin(0x100)
        assert acc.push([_uop(0x100)], taken=False) == []
        acc.begin(0x200)    # new PW announced while the entry is still open
        sealed = acc.flush()
        assert len(sealed) == 1
        assert sealed[0].pw_id == 0x100

    def test_oversized_instruction_bypasses(self):
        acc = self._accumulator(max_uops_per_entry=2)
        acc.begin(0)
        from repro.isa.uop import Uop, UopKind
        uops = [Uop(pc=0x10, inst_length=4, kind=UopKind.ALU,
                    slot=i, num_slots=3) for i in range(3)]
        assert acc.push(uops, taken=False) == []
        assert acc.bypassed_uops == 3
        assert acc.flush() == []


class TestUopsStorageBytes:
    def test_counts_imm_slots(self):
        plain = _uop(0)
        imm = _uop(4, has_imm=True)
        assert uops_storage_bytes([plain], 7, 4) == 7
        assert uops_storage_bytes([plain, imm], 7, 4) == 18


class TestFirstMismatch:
    def test_none_on_equal(self):
        assert _first_mismatch({"a": 1}, {"a": 1}) is None

    def test_reports_lexically_first_key(self):
        assert _first_mismatch({"a": 1, "b": 2}, {"a": 0, "b": 0}) == "a"

    def test_missing_key_is_a_mismatch(self):
        assert _first_mismatch({"a": 1}, {}) == "a"


class TestDifferentialRunner:
    @pytest.mark.parametrize("design", POLICY_LABELS)
    def test_agrees_on_committed_tree(self, design):
        trace = _small_trace()
        report = DifferentialRunner(
            trace, policy_config(design, 256), design).run()
        assert report.ok, report.divergence
        assert report.actions > 0
        assert report.counters["instructions"] == 2000

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_agrees_across_suite_with_smc(self, workload):
        trace = _small_trace(workload, 3000)
        for design in POLICY_LABELS:
            report = DifferentialRunner(
                trace, policy_config(design, 256), design,
                smc_interval=50, smc_seed=3).run()
            assert report.ok, report.divergence

    def test_rejects_loop_cache_configs(self):
        trace = _small_trace(n=500)
        config = policy_config("baseline", 256)
        config = dataclasses.replace(
            config,
            loop_cache=dataclasses.replace(config.loop_cache, enabled=True))
        with pytest.raises(Exception, match="loop cache"):
            DifferentialRunner(trace, config, "baseline")

    def test_coverage_signals_populated(self):
        trace = _small_trace()
        report = DifferentialRunner(
            trace, policy_config("f-pwac", 128), "f-pwac").run()
        assert any(s.startswith("fill:") for s in report.coverage)
        assert any(s.startswith("event:") for s in report.coverage)

    def test_detects_seeded_counter_bug(self, monkeypatch):
        """Miscounted hits must surface as a divergence, not pass silently."""
        trace = _small_trace(n=1500)
        original = UopCache.lookup

        def lying_lookup(self, pc):
            entry = original(self, pc)
            if entry is not None and self.hits == 5:
                self.hits += 1  # double-count the fifth hit
            return entry

        monkeypatch.setattr(UopCache, "lookup", lying_lookup)
        report = DifferentialRunner(
            trace, policy_config("clasp", 256), "clasp").run()
        assert not report.ok
        assert report.divergence.counter == "oc_hits"

    def test_divergence_carries_telemetry_events(self, monkeypatch):
        trace = _small_trace(n=1500)
        original = UopCache.lookup

        def lying_lookup(self, pc):
            entry = original(self, pc)
            if entry is not None and self.hits == 5:
                self.hits += 1
            return entry

        monkeypatch.setattr(UopCache, "lookup", lying_lookup)
        runner = DifferentialRunner(
            trace, policy_config("clasp", 256), "clasp")
        with pytest.raises(OracleDivergence) as excinfo:
            runner.run(raise_on_divergence=True)
        divergence = excinfo.value
        assert divergence.events, "expected telemetry context in the report"
        assert divergence.to_dict()["counter"] == "oc_hits"
        assert "oc_hits" in str(divergence)

    def test_smc_probes_agree(self):
        trace = _small_trace(n=2500)
        report = DifferentialRunner(
            trace, policy_config("pwac", 128), "pwac",
            smc_interval=20, smc_seed=11).run()
        assert report.ok, report.divergence
        assert "behavior:smc" in report.coverage


class TestResolveBranchOutcomes:
    def test_labels_match_simulator_counts(self):
        trace = _small_trace()
        config = policy_config("baseline", 256)
        outcomes = resolve_branch_outcomes(trace, config)
        sim = Simulator(trace, config, "baseline")
        for _ in sim.steps():
            pass
        counters = sim.supply_counters()
        assert len(outcomes) == len(trace.records)
        assert sum(o != "none" for o in outcomes) == counters["branches"]
        assert sum(o == "mispredict" for o in outcomes) == \
            counters["mispredicts"]
        assert sum(o == "decode-resteer" for o in outcomes) == \
            counters["resteers"]
