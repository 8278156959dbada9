"""Differential runner: optimized simulator vs reference models, in lockstep.

One :class:`DifferentialRunner` replays a single trace through both the
optimized :class:`~repro.core.simulator.Simulator` and the naive
:class:`~repro.oracle.frontend.ReferenceFrontEnd`, comparing the full
architectural counter surface (``supply_counters``) after every fetch action
and the resident-entry structural view on a stride.  The first disagreement
raises (or records) a structured :class:`OracleDivergence` naming the action,
the counter, both values, and the last N telemetry events the optimized side
emitted before the split.

Branch outcomes come from the trace's branch-outcome column
(:func:`repro.branch.outcome_column`, one predictor pass in trace order).
The optimized simulator reads the same cached column, so this differential
does not check the predictor pass; tests/test_branch_outcomes.py checks the
column against a live :class:`BranchPredictionUnit` instead.  The reference
gets the column as per-record labels and touches no predictor code.

Optional SMC probes (self-modifying-code invalidations) are applied to both
caches at identical action boundaries from a seeded, trace-derived schedule,
exercising the invalidation/dissolution paths the paper's Section II-B4
describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence

from ..branch.window import PredictionWindowBuilder
from ..common.config import SimulatorConfig
from ..common.errors import CacheError, OracleError, SimulationError
from ..core.simulator import Simulator
from ..telemetry.hub import TelemetryHub
from ..telemetry.sinks import RingBufferSink
from ..workloads.trace import Trace
from .frontend import (OUTCOME_CORRECT, OUTCOME_MISPREDICT, OUTCOME_NONE,
                       OUTCOME_RESTEER, ReferenceFrontEnd)

_END = object()     # sentinel: a model's step stream is exhausted


class OracleDivergence(OracleError):
    """The two models disagreed: structured first-divergence report."""

    def __init__(self, workload: str, config_label: str, action: int,
                 counter: str, reference: Any, optimized: Any,
                 events: Sequence[Dict[str, Any]] = ()) -> None:
        self.workload = workload
        self.config_label = config_label
        #: Index of the fetch action after which the models first disagreed.
        self.action = action
        #: Counter (or structural probe) that diverged.
        self.counter = counter
        self.reference = reference
        self.optimized = optimized
        #: Last telemetry events (as dicts) before the divergence, oldest
        #: first, from the optimized side's ring buffer.
        self.events = list(events)
        super().__init__(self._message())

    def _message(self) -> str:
        lines = [
            f"oracle divergence: workload={self.workload!r} "
            f"config={self.config_label!r} action={self.action} "
            f"counter={self.counter!r}",
            f"  reference = {self.reference!r}",
            f"  optimized = {self.optimized!r}",
        ]
        if self.events:
            lines.append(f"  last {len(self.events)} telemetry events:")
            for event in self.events:
                lines.append(f"    {event!r}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "config_label": self.config_label,
            "action": self.action,
            "counter": self.counter,
            "reference": self.reference,
            "optimized": self.optimized,
            "events": self.events,
        }


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    workload: str
    config_label: str
    actions: int = 0
    divergence: Optional[OracleDivergence] = None
    #: Final optimized-side counters (empty when the run diverged early).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Behavioural signals this input exercised (the fuzzer's coverage key).
    coverage: FrozenSet[str] = frozenset()

    @property
    def ok(self) -> bool:
        return self.divergence is None


#: Oracle label of each outcome-column value (the three
#: :class:`PredictionOutcome` values, then ``NOT_A_BRANCH``).
_OUTCOME_LABELS = (OUTCOME_CORRECT, OUTCOME_RESTEER, OUTCOME_MISPREDICT,
                   OUTCOME_NONE)


def resolve_branch_outcomes(trace: Trace, config: SimulatorConfig,
                            limit: Optional[int] = None) -> List[str]:
    """Per-record branch outcome labels: the trace's cached outcome column
    (the one the simulator reads), mapped to the oracle's labels."""
    # Imported here, as the simulator does, to keep the fast loop out of
    # start-up.
    from ..core.fastpath import trace_outcomes
    return [_OUTCOME_LABELS[outcome]
            for outcome in trace_outcomes(trace, config.branch)[:limit]]


def _first_mismatch(reference: Dict[str, int],
                    optimized: Dict[str, int]) -> Optional[str]:
    for key in sorted(set(reference) | set(optimized)):
        if reference.get(key) != optimized.get(key):
            return key
    return None


def first_result_divergence(reference: Dict[str, Any],
                            optimized: Dict[str, Any],
                            prefix: str = "") -> Optional[tuple]:
    """First differing field between two ``SimulationResult.to_dict()``
    payloads as ``(dotted.path, reference_value, optimized_value)``, walking
    nested dicts in sorted key order; ``None`` when equal.  Shared by the
    fast-mode differential below and the golden/fast-mode test suites so a
    divergence is always reported at field granularity."""
    for key in sorted(set(reference) | set(optimized), key=str):
        path = f"{prefix}{key}"
        ref_value = reference.get(key)
        opt_value = optimized.get(key)
        if isinstance(ref_value, dict) and isinstance(opt_value, dict):
            nested = first_result_divergence(ref_value, opt_value,
                                             prefix=f"{path}.")
            if nested is not None:
                return nested
            continue
        if ref_value != opt_value:
            return (path, ref_value, opt_value)
    return None


def _result_coverage(sim: Simulator) -> FrozenSet[str]:
    """Behavioural signals of a completed (non-telemetry) run, mirroring the
    reference differential's coverage key so the fuzzer's corpus guidance
    works identically in ``--fast-mode``."""
    signals = set()
    oc = sim.uop_cache
    for kind, count in oc.fill_kind_counts.items():
        if count:
            signals.add(f"fill:{kind.value}")
    for reason, count in oc.termination_counts.items():
        if count:
            signals.add(f"term:{reason.value}")
    if oc.evicted_entries:
        signals.add("behavior:evict")
    if oc.invalidated_entries:
        signals.add("behavior:smc")
    if oc.duplicate_fills:
        signals.add("behavior:duplicate")
    if sim.accumulator.bypassed_uops:
        signals.add("behavior:bypass")
    if oc.spanning_fill_fraction > 0:
        signals.add("behavior:clasp-span")
    if sim._mispredicts:
        signals.add("behavior:mispredict")
    if sim._resteers:
        signals.add("behavior:resteer")
    if sim._uops_from_loop:
        signals.add("behavior:loop-cache")
    return frozenset(signals)


def diff_fast_mode(trace: Trace, config: SimulatorConfig,
                   config_label: str = "",
                   raise_on_divergence: bool = False) -> DiffReport:
    """Run ``trace`` through the normal serve loop and the counters-only
    fast mode and require identical :class:`SimulationResult` payloads.

    Unlike the lockstep reference differential, both sides here are the
    production simulator — the loop cache, warmup snapshots and every design
    are in scope — and the comparison is the full end-of-run result surface
    (``to_dict()``), field by field.  The first differing field is reported
    as an :class:`OracleDivergence` with the dotted field path as the
    counter name.
    """
    if config.fast_mode:
        config = config.with_fast_mode(False)
    normal_sim = Simulator(trace, config, config_label)
    normal = normal_sim.run()
    fast_sim = Simulator(trace, config.with_fast_mode(), config_label)
    report = DiffReport(workload=trace.name, config_label=config_label)
    try:
        fast = fast_sim.run()
    except (CacheError, SimulationError) as error:
        report.divergence = OracleDivergence(
            trace.name, config_label, 0, "exception",
            "no exception", repr(error))
    else:
        split = first_result_divergence(normal.to_dict(), fast.to_dict())
        if split is not None:
            report.divergence = OracleDivergence(
                trace.name, config_label, 0, *split)
    report.actions = len(trace.records)
    if report.divergence is None:
        report.counters = fast_sim.supply_counters()
    report.coverage = _result_coverage(normal_sim)
    if raise_on_divergence and report.divergence is not None:
        raise report.divergence
    return report


def _coverage_signals(sim: Simulator, hub: TelemetryHub,
                      ref_counters: Dict[str, int]) -> FrozenSet[str]:
    signals = {f"event:{kind}" for kind in hub.summary()}
    oc = sim.uop_cache
    for kind, count in oc.fill_kind_counts.items():
        if count:
            signals.add(f"fill:{kind.value}")
    for reason, count in oc.termination_counts.items():
        if count:
            signals.add(f"term:{reason.value}")
    if oc.evicted_entries:
        signals.add("behavior:evict")
    if oc.invalidated_entries:
        signals.add("behavior:smc")
    if oc.duplicate_fills:
        signals.add("behavior:duplicate")
    if sim.accumulator.bypassed_uops:
        signals.add("behavior:bypass")
    if oc.spanning_fill_fraction > 0:
        signals.add("behavior:clasp-span")
    if ref_counters.get("mispredicts"):
        signals.add("behavior:mispredict")
    if ref_counters.get("resteers"):
        signals.add("behavior:resteer")
    return frozenset(signals)


class DifferentialRunner:
    """Runs one trace through both models and compares them in lockstep."""

    def __init__(self, trace: Trace, config: SimulatorConfig,
                 config_label: str = "",
                 smc_interval: int = 0, smc_seed: int = 0,
                 check_interval: int = 64,
                 telemetry_tail: int = 16) -> None:
        if config.loop_cache.enabled:
            raise OracleError(
                "differential runs require the loop cache disabled "
                "(the reference front-end does not model it)")
        self.trace = trace
        self.config = config
        self.config_label = config_label
        self.smc_interval = smc_interval
        self.smc_seed = smc_seed
        self.check_interval = check_interval
        self.telemetry_tail = telemetry_tail

    def run(self, raise_on_divergence: bool = False) -> DiffReport:
        trace = self.trace
        config = self.config
        label = self.config_label
        line_bytes = config.memory.l1i.line_bytes

        hub = TelemetryHub(categories=("fetch", "uopcache"))
        ring = RingBufferSink(capacity=max(self.telemetry_tail, 1))
        hub.add_sink(ring)
        sim = Simulator(trace, config, label, telemetry=hub)
        windows = PredictionWindowBuilder(
            trace, line_bytes=line_bytes, config=config.branch).all_windows()
        outcomes = resolve_branch_outcomes(trace, config)
        ref = ReferenceFrontEnd(trace, config, windows, outcomes)

        smc_rng = random.Random(self.smc_seed)
        records = trace.records
        report = DiffReport(workload=trace.name, config_label=label)

        def diverge(action: int, counter: str, reference: Any,
                    optimized: Any) -> OracleDivergence:
            return OracleDivergence(
                trace.name, label, action, counter, reference, optimized,
                events=[event.to_dict()
                        for event in ring.tail(self.telemetry_tail)])

        opt_steps = sim.steps()
        ref_steps = ref.steps()
        action = 0
        while report.divergence is None:
            try:
                opt_state = next(opt_steps, _END)
            except (CacheError, SimulationError) as error:
                report.divergence = diverge(action, "exception",
                                            "no exception", repr(error))
                break
            ref_state = next(ref_steps, _END)
            if (opt_state is _END) != (ref_state is _END):
                report.divergence = diverge(
                    action, "action-count",
                    "finished" if ref_state is _END else "still serving",
                    "finished" if opt_state is _END else "still serving")
                break
            if opt_state is _END:
                break
            opt_counters = sim.supply_counters()
            mismatch = _first_mismatch(ref_state, opt_counters)
            if mismatch is not None:
                report.divergence = diverge(
                    action, mismatch, ref_state.get(mismatch),
                    opt_counters.get(mismatch))
                break
            if self.smc_interval and \
                    (action + 1) % self.smc_interval == 0:
                probe_pc = records[smc_rng.randrange(len(records))].pc
                removed_opt = sim.uop_cache.invalidate_icache_line(probe_pc)
                removed_ref = ref.cache.invalidate_icache_line(probe_pc)
                if removed_opt != removed_ref:
                    report.divergence = diverge(
                        action, "smc-removed", removed_ref, removed_opt)
                    break
            if self.check_interval and \
                    (action + 1) % self.check_interval == 0:
                structural = self._compare_structure(sim, ref)
                if structural is not None:
                    report.divergence = diverge(action, *structural)
                    break
            action += 1
        report.actions = action

        if report.divergence is None:
            structural = self._compare_structure(sim, ref)
            if structural is not None:
                report.divergence = diverge(action, *structural)
        ref_final = ref.supply_counters()
        if report.divergence is None:
            report.counters = sim.supply_counters()
        report.coverage = _coverage_signals(sim, hub, ref_final)
        if raise_on_divergence and report.divergence is not None:
            raise report.divergence
        return report

    def _compare_structure(self, sim: Simulator,
                           ref: ReferenceFrontEnd) -> Optional[tuple]:
        """(counter, reference, optimized) on mismatch, else None."""
        try:
            sim.uop_cache.check_invariants()
        except CacheError as error:
            return ("invariant", "consistent", repr(error))
        opt_tags = sim.uop_cache.resident_tags()
        ref_tags = ref.resident_tags()
        for set_index, (ref_set, opt_set) in \
                enumerate(zip(ref_tags, opt_tags)):
            if ref_set != opt_set:
                return (f"resident-set-{set_index}", ref_set, opt_set)
        return None
