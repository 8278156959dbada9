"""Tests of the telemetry subsystem: hub, sinks, intervals, replay, CLI.

The centerpiece is the replay cross-check: for every compaction policy, the
recorded event stream folded back into counters must reproduce the
simulation's aggregate counters *exactly* (warmup 0 — see
:mod:`repro.telemetry.replay`).
"""

import dataclasses
import io
import json

import pytest

from repro.cli import main
from repro.common.config import (
    SimulatorConfig,
    TelemetryConfig,
    UopCacheConfig,
)
from repro.common.errors import ConfigError
from repro.core.experiment import DEFAULT_SEED, policy_config, workload_trace
from repro.core.simulator import Simulator
from repro.core.smt import SmtSimulator
from repro.runner.job import JobSpec, execute_job
from repro.telemetry import (
    ChromeTraceSink,
    CounterSink,
    EventKind,
    IntervalTracker,
    JsonlSink,
    RingBufferSink,
    TelemetryEvent,
    TelemetryHub,
    TelemetryMismatch,
    crosscheck,
    replay_counters,
)

from helpers import make_entry


def make_sim(workload="bm-x64", design="baseline", instructions=2000,
             categories=None, **overrides):
    """A short telemetry-enabled simulation with an unbounded ring buffer."""
    config = dataclasses.replace(
        policy_config(design, 2048), warmup_instructions=0,
        telemetry=TelemetryConfig(
            enabled=True,
            events=tuple(categories) if categories else
            TelemetryConfig().events),
        **overrides)
    trace = workload_trace(workload, instructions, seed=DEFAULT_SEED)
    sim = Simulator(trace, config, design)
    ring = sim.telemetry.add_sink(RingBufferSink(capacity=None))
    return sim, ring


# --------------------------------------------------------------------------
# Hub.
# --------------------------------------------------------------------------

def test_hub_rejects_unknown_categories():
    with pytest.raises(ConfigError, match="unknown telemetry categories"):
        TelemetryHub(categories=["uopcache", "nonsense"])


def test_hub_counts_without_sinks():
    hub = TelemetryHub()
    hub.emit(EventKind.OC_HIT, pc=0x1000, uops=4)
    hub.emit(EventKind.OC_HIT, pc=0x1010, uops=2)
    hub.emit(EventKind.OC_MISS, pc=0x1020)
    assert hub.summary() == {"oc_hit": 2, "oc_miss": 1}


def test_hub_category_filter_drops_before_sinks():
    hub = TelemetryHub(categories=["uopcache"])
    ring = hub.add_sink(RingBufferSink())
    hub.emit(EventKind.OC_HIT, pc=0x1000, uops=1)
    hub.emit(EventKind.FETCH_ACTION, source="oc", uops=1, insts=1, tid=0)
    assert hub.wants(EventKind.OC_HIT)
    assert not hub.wants(EventKind.FETCH_ACTION)
    assert [e.kind for e in ring.events] == [EventKind.OC_HIT]
    assert hub.summary() == {"oc_hit": 1}


def test_hub_stamps_current_cycle():
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    hub.cycle = 41
    hub.emit(EventKind.OC_MISS, pc=0x1000)
    assert ring.events[0].cycle == 41


# --------------------------------------------------------------------------
# Sinks.
# --------------------------------------------------------------------------

def test_ring_buffer_bounds_and_counts_drops():
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink(capacity=4))
    for pc in range(10):
        hub.emit(EventKind.OC_MISS, pc=pc)
    assert len(ring) == 4
    assert ring.accepted == 10
    assert ring.dropped == 6
    assert [e.args["pc"] for e in ring.events] == [6, 7, 8, 9]


def test_jsonl_sink_writes_one_object_per_line():
    stream = io.StringIO()
    hub = TelemetryHub()
    sink = hub.add_sink(JsonlSink(stream))
    hub.cycle = 7
    hub.emit(EventKind.OC_HIT, pc=0x1000, uops=3)
    hub.close()
    lines = stream.getvalue().splitlines()
    assert sink.written == 1
    assert json.loads(lines[0]) == {
        "kind": "oc_hit", "cycle": 7, "pc": 0x1000, "uops": 3}


def test_counter_sink_buckets_interval_samples():
    sink = CounterSink()
    sink.accept(TelemetryEvent(EventKind.INTERVAL, 1024,
                               {"ipc": 1.23, "upc": 2.5}))
    sink.accept(TelemetryEvent(EventKind.OC_HIT, 1, {"pc": 0}))
    assert sink.intervals == 1
    assert sink.counts == {"interval": 1, "oc_hit": 1}
    assert sink.ipc_histogram.counts[123] == 1
    assert sink.upc_histogram.counts[250] == 1


def test_chrome_trace_sink_structure(tmp_path):
    out = tmp_path / "trace.json"
    hub = TelemetryHub()
    hub.add_sink(ChromeTraceSink(out))
    hub.cycle = 5
    hub.emit(EventKind.OC_MISS, pc=0x1000)
    hub.emit(EventKind.INTERVAL, start=0, end=1024, insts=100, uops=200,
             ipc=0.1, upc=0.2, tid=1)
    hub.close()
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    phases = {event["ph"] for event in events}
    assert phases == {"M", "i", "C"}
    counter = next(e for e in events if e["ph"] == "C")
    assert counter["name"] == "throughput"
    assert counter["tid"] == 1
    assert counter["args"] == {"ipc": 0.1, "upc": 0.2}
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["name"] == "oc_miss"
    assert instant["ts"] == 5
    assert "tid" not in instant["args"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "repro simulator" in names


# --------------------------------------------------------------------------
# Interval tracker.
# --------------------------------------------------------------------------

def test_interval_tracker_emits_periodic_samples():
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    tracker = IntervalTracker(hub, interval_cycles=100)
    tracker.update(50, instructions=10, uops=20)
    assert len(ring) == 0                     # window not complete yet
    tracker.update(250, instructions=40, uops=80)
    samples = ring.events
    assert [(e.args["start"], e.args["end"]) for e in samples] == \
        [(0, 100), (100, 200)]
    # The whole delta lands in the first crossed window.
    assert samples[0].args["insts"] == 40
    assert samples[1].args["insts"] == 0
    tracker.update(255, instructions=46, uops=92)
    tracker.finish(260)
    assert ring.events[-1].args == {
        "start": 200, "end": 260, "insts": 6, "uops": 12,
        "ipc": 6 / 60, "upc": 12 / 60, "tid": 0}


def test_interval_tracker_finish_skips_empty_tail():
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    tracker = IntervalTracker(hub, interval_cycles=100)
    tracker.update(100, instructions=5, uops=9)
    count = len(ring)
    tracker.finish(100)                       # nothing after the boundary
    assert len(ring) == count
    tracker.finish(150)                       # clock moved, no activity
    assert len(ring) == count


# --------------------------------------------------------------------------
# Replay cross-check (the acceptance criterion).
# --------------------------------------------------------------------------

@pytest.mark.parametrize("design", ["baseline", "clasp", "rac", "pwac",
                                    "f-pwac"])
def test_event_replay_reproduces_counters(design):
    sim, ring = make_sim(design=design, instructions=4000)
    result = sim.run()
    replayed = crosscheck(ring.events, result)
    assert replayed["uops"] == result.uops
    assert result.telemetry_events == sim.telemetry.summary()


def test_crosscheck_names_first_mismatching_counter():
    sim, ring = make_sim(instructions=1500)
    result = sim.run()
    tampered = dataclasses.replace(result, uop_cache_hits=result.
                                   uop_cache_hits + 1)
    with pytest.raises(TelemetryMismatch) as excinfo:
        crosscheck(ring.events, tampered)
    assert excinfo.value.counter == "uop_cache_hits"
    assert excinfo.value.last_event is not None
    assert excinfo.value.last_event.kind is EventKind.OC_HIT


def test_crosscheck_reports_fill_kind_breakdown_mismatch():
    sim, ring = make_sim(design="rac", instructions=1500)
    result = sim.run()
    tampered = dataclasses.replace(result)
    from repro.uopcache.cache import FillKind
    tampered.fill_kind_counts = dict(result.fill_kind_counts)
    tampered.fill_kind_counts[FillKind.RAC] = \
        tampered.fill_kind_counts.get(FillKind.RAC, 0) + 1
    with pytest.raises(TelemetryMismatch) as excinfo:
        crosscheck(ring.events, tampered)
    assert excinfo.value.counter == "fill_kind_counts"


def test_crosscheck_mismatch_with_no_events_says_so():
    sim, _ = make_sim(instructions=800)
    result = sim.run()
    with pytest.raises(TelemetryMismatch, match="no event of that kind"):
        crosscheck([], result)


def test_replay_counters_on_empty_stream():
    counters = replay_counters([])
    assert counters["uops"] == 0
    assert counters["fill_kind_counts"] == {}


# --------------------------------------------------------------------------
# Simulator integration.
# --------------------------------------------------------------------------

def test_disabled_telemetry_builds_no_hub():
    trace = workload_trace("bm-x64", 500, seed=DEFAULT_SEED)
    sim = Simulator(trace, SimulatorConfig(), "baseline")
    assert sim.telemetry is None
    result = sim.run()
    assert result.telemetry_events == {}


def test_telemetry_does_not_perturb_results():
    """Enabled vs disabled runs must be bit-identical (minus the counts)."""
    trace = workload_trace("bm-ds", 2000, seed=DEFAULT_SEED)
    plain = Simulator(trace, SimulatorConfig(), "baseline").run().to_dict()
    config = dataclasses.replace(
        SimulatorConfig(), telemetry=TelemetryConfig(enabled=True))
    traced = Simulator(trace, config, "baseline").run().to_dict()
    assert traced["telemetry_events"]
    plain.pop("telemetry_events")
    traced.pop("telemetry_events")
    assert plain == traced


def test_cache_emits_eviction_and_invalidation_events():
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    from repro.uopcache.cache import UopCache
    cache = UopCache(UopCacheConfig(num_sets=1, associativity=1),
                     telemetry=hub)
    cache.fill(make_entry(0x1000))
    cache.fill(make_entry(0x2000))            # evicts the first
    cache.invalidate_icache_line(0x2000)
    kinds = [e.kind for e in ring.events]
    assert EventKind.OC_EVICT in kinds
    assert EventKind.OC_INVALIDATE in kinds
    evict = next(e for e in ring.events if e.kind is EventKind.OC_EVICT)
    assert evict.args["pc"] == 0x1000


def test_force_pw_merge_emits_dissolve_event():
    """F-PWAC forced merge (Fig. 14): relocating the foreign entry emits
    ``oc_dissolve`` naming how many entries (and uops) moved."""
    from repro.common.config import CompactionPolicy
    from repro.uopcache.cache import FillKind, UopCache
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    cache = UopCache(UopCacheConfig(
        num_sets=4, associativity=2,
        compaction=CompactionPolicy.F_PWAC, max_entries_per_line=2),
        telemetry=hub)
    cache.fill(make_entry(0x1000, pw_id=0x1000))      # PW buddy, way 0
    cache.fill(make_entry(0x1010, pw_id=0x2000))      # foreign, RACs into way 0
    result = cache.fill(make_entry(0x1020, pw_id=0x1000))  # forces the merge
    assert result.kind is FillKind.F_PWAC
    dissolve = next(e for e in ring.events
                    if e.kind is EventKind.OC_DISSOLVE)
    assert dissolve.args["moved"] == 1
    assert dissolve.args["moved_uops"] == 2
    cache.check_invariants()


def test_duplicate_fill_emits_marked_fill_event():
    from repro.uopcache.cache import UopCache
    hub = TelemetryHub()
    ring = hub.add_sink(RingBufferSink())
    cache = UopCache(UopCacheConfig(num_sets=4, associativity=2))
    cache.attach_telemetry(hub)
    cache.fill(make_entry(0x1000))
    cache.fill(make_entry(0x1000))
    fills = [e for e in ring.events if e.kind is EventKind.OC_FILL]
    assert fills[-1].args["fill_kind"] == "duplicate"


def test_smt_threads_share_one_hub_with_distinct_tids():
    config = dataclasses.replace(
        SimulatorConfig(), telemetry=TelemetryConfig(enabled=True))
    traces = [workload_trace(name, 1200, seed=DEFAULT_SEED)
              for name in ("bm-x64", "bm-lla")]
    smt = SmtSimulator(traces, config)
    ring = smt.telemetry.add_sink(RingBufferSink(capacity=None))
    smt.run()
    assert all(t.telemetry is smt.telemetry for t in smt.threads)
    tids = {e.args["tid"] for e in ring.events
            if e.kind is EventKind.FETCH_ACTION}
    assert tids == {0, 1}


# --------------------------------------------------------------------------
# Config validation.
# --------------------------------------------------------------------------

def test_telemetry_config_validation():
    with pytest.raises(ConfigError):
        TelemetryConfig(events=("bogus",))
    with pytest.raises(ConfigError):
        TelemetryConfig(events=())
    with pytest.raises(ConfigError):
        TelemetryConfig(interval_cycles=0)


# --------------------------------------------------------------------------
# Runner / result plumbing.
# --------------------------------------------------------------------------

def test_sweep_job_telemetry_lands_in_journaled_result():
    job = JobSpec(workload="bm-x64", design="rac", num_instructions=1500,
                  telemetry=True)
    result = execute_job(job)
    assert result.telemetry_events["oc_hit"] > 0
    restored = type(result).from_dict(result.to_dict())
    assert restored.telemetry_events == result.telemetry_events


# --------------------------------------------------------------------------
# CLI.
# --------------------------------------------------------------------------

def test_cli_trace_chrome(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(["trace", "bm-x64", "--instructions", "1500",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"M", "i", "C"} <= {e["ph"] for e in doc["traceEvents"]}
    assert "telemetry:" in capsys.readouterr().out


def test_cli_trace_jsonl_with_category_filter(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code = main(["trace", "bm-x64", "--instructions", "1500",
                 "--format", "jsonl", "--events", "uopcache",
                 "--out", str(out)])
    assert code == 0
    kinds = {json.loads(line)["kind"]
             for line in out.read_text().splitlines()}
    assert kinds and all(k.startswith("oc_") for k in kinds)


def test_cli_trace_rejects_unknown_category(tmp_path, capsys):
    code = main(["trace", "bm-x64", "--events", "bogus",
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    assert "unknown event category" in capsys.readouterr().err
