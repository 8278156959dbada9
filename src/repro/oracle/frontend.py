"""Reference front-end: naive serving-mode accounting over the PW stream.

Re-implements the *architectural* half of :class:`repro.core.simulator
.Simulator.steps` — which records are served from which supply path, what
the accumulation buffer seals, what the uop cache does — without any of the
timing machinery (cycles, latencies, backpressure, the back-end).  Branch
outcomes are not predicted here: the differential runner pre-resolves the
trace through one deterministic :class:`BranchPredictionUnit` pass and hands
this model a plain per-record outcome string, so the reference shares no
predictor code with the engine under test (outcomes are a path-independent
function of the record stream; see ``repro/oracle/runner.py``).

Intentionally NOT modelled (documented in DESIGN.md section 11): fetch/decode
cycle timing, the loop cache (the reference refuses loop-enabled configs),
SMT sharing, warmup snapshots, and power accounting.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from ..common.config import SimulatorConfig
from ..common.errors import OracleError
from ..workloads.trace import Trace
from .reference import ReferenceAccumulator, ReferenceUopCache

#: Per-record outcome labels the runner feeds us (one per PredictionOutcome
#: plus "none" for non-branch records).
OUTCOME_NONE = "none"
OUTCOME_CORRECT = "correct"
OUTCOME_RESTEER = "decode-resteer"
OUTCOME_MISPREDICT = "mispredict"

_FILL_KINDS = ("alloc", "rac", "pwac", "f-pwac", "duplicate")
_TERMINATIONS = ("icache-line-boundary", "taken-branch", "max-uops",
                 "max-imm-disp", "max-ucode", "line-full", "pw-end")


class ReferenceFrontEnd:
    """Replays a trace through the reference models, one fetch action at a
    time, mirroring the optimized simulator's serving decisions."""

    def __init__(self, trace: Trace, config: SimulatorConfig,
                 windows: Sequence, outcomes: Sequence[str]) -> None:
        if config.loop_cache.enabled:
            raise OracleError(
                "the reference front-end does not model the loop cache; "
                "disable it for differential runs")
        if len(outcomes) < min(len(trace.records),
                               config.max_instructions or len(trace.records)):
            raise OracleError("outcome stream shorter than the trace limit")
        self.trace = trace
        self.config = config
        self.windows = list(windows)
        self.outcomes = list(outcomes)
        line_bytes = config.memory.l1i.line_bytes
        self.cache = ReferenceUopCache(config.uop_cache,
                                       icache_line_bytes=line_bytes)
        self.accumulator = ReferenceAccumulator(config.uop_cache,
                                                icache_line_bytes=line_bytes)
        self._instructions = 0
        self._uops_oc = 0
        self._uops_ic = 0
        self._branches = 0
        self._mispredicts = 0
        self._resteers = 0

    # -- per-record helpers --------------------------------------------------

    def _consume(self, cursor: int, from_oc: bool) -> str:
        """Account one record; returns its branch outcome label."""
        record = self.trace.records[cursor]
        uops = self.trace.program.uops_at(record.pc)
        if from_oc:
            self._uops_oc += len(uops)
        else:
            self._uops_ic += len(uops)
        self._instructions += 1
        outcome = self.outcomes[cursor]
        if outcome != OUTCOME_NONE:
            self._branches += 1
            if outcome == OUTCOME_MISPREDICT:
                self._mispredicts += 1
            elif outcome == OUTCOME_RESTEER:
                self._resteers += 1
        return outcome

    def _taken(self, cursor: int) -> bool:
        record = self.trace.records[cursor]
        inst = self.trace.program.at(record.pc)
        return record.next_pc != inst.end_address

    # -- the serving loop ----------------------------------------------------

    def steps(self) -> Iterator[Dict[str, int]]:
        """Yields :meth:`supply_counters` after every fetch action."""
        records = self.trace.records
        program = self.trace.program
        cfg = self.config
        max_insts = cfg.max_instructions or len(records)
        limit = min(len(records), max_insts)
        cursor = 0
        window_index = 0
        pw = self.windows[0]

        while cursor < limit:
            while pw.last < cursor:
                window_index += 1
                pw = self.windows[window_index]
            pc = records[cursor].pc
            entry = self.cache.lookup(pc)
            if entry is not None:
                # Path switch to the uop cache drains the accumulator.
                for sealed in self.accumulator.flush():
                    self.cache.fill(sealed)
                start, end = entry.start_pc, entry.end_pc
                while cursor < limit:
                    if not (start <= records[cursor].pc < end):
                        break
                    taken = self._taken(cursor)
                    outcome = self._consume(cursor, from_oc=True)
                    cursor += 1
                    if outcome in (OUTCOME_MISPREDICT, OUTCOME_RESTEER):
                        break
                    if taken:
                        break
            else:
                end_index = min(pw.last, limit - 1)
                self.accumulator.begin(pw.pw_id)
                while cursor <= end_index:
                    record = records[cursor]
                    uops = program.uops_at(record.pc)
                    taken = self._taken(cursor)
                    outcome = self._consume(cursor, from_oc=False)
                    cursor += 1
                    for sealed in self.accumulator.push(uops, taken):
                        self.cache.fill(sealed)
                    if outcome in (OUTCOME_MISPREDICT, OUTCOME_RESTEER):
                        break
            yield self.supply_counters()

    def run(self) -> Dict[str, int]:
        counters = self.supply_counters()
        for counters in self.steps():
            pass
        return counters

    # -- comparison surface --------------------------------------------------

    def supply_counters(self) -> Dict[str, int]:
        """Same keys/values as ``Simulator.supply_counters`` must produce."""
        cache = self.cache
        counters = {
            "instructions": self._instructions,
            "uops_oc": self._uops_oc,
            "uops_ic": self._uops_ic,
            "uops_loop": 0,
            "oc_hits": cache.counters["hits"],
            "oc_misses": cache.counters["misses"],
            "oc_fills": cache.counters["fills"],
            "oc_uops_delivered": cache.counters["uops_delivered"],
            "oc_duplicate_fills": cache.counters["duplicate_fills"],
            "oc_evicted_entries": cache.counters["evicted_entries"],
            "oc_invalidated_entries": cache.counters["invalidated_entries"],
            "bypassed_uops": self.accumulator.bypassed_uops,
            "branches": self._branches,
            "mispredicts": self._mispredicts,
            "resteers": self._resteers,
        }
        for kind in _FILL_KINDS:
            counters[f"fill_{kind}"] = cache.fill_kinds[kind]
        for reason in _TERMINATIONS:
            counters[f"term_{reason}"] = \
                cache.termination_counts.get(reason, 0)
        counters["loop_captures"] = 0
        counters["loop_uops_served"] = 0
        counters["loop_exits"] = 0
        return counters

    def resident_tags(self) -> List:
        return self.cache.resident_tags()
