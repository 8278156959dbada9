"""SMT (simultaneous multithreading) simulation: hardware threads sharing
the uop cache.

The paper motivates PWAC with exactly this scenario (Section V-B1): "the
replacement state can be updated by another thread because the uop cache is
shared across all threads in a multithreaded core. Hence, RAC cannot
guarantee compacting OC entries of the same thread together."  With two
threads interleaving fills, RAC's most-recently-used line frequently belongs
to the *other* thread, so replacement-aware compaction mixes unrelated
entries into one replacement unit; PW-aware compaction keeps each PW's
(hence each thread's) entries together.

Model: each hardware thread runs its own front-end context over its own
trace: branch outcomes (its trace's outcome column, so one predictor pass
per thread), accumulation buffer, uop queue and back-end.  The **uop
cache, the cache hierarchy and the decoder energy model are shared**.
The coordinator interleaves thread fetch actions in global front-end-cycle
order, which time-orders their accesses to the shared structures.  Decoder
port arbitration is not modeled (both threads may decode in the same
cycle); the study target is capacity/placement interference in the uop
cache, which this captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..caches.hierarchy import MemoryHierarchy
from ..common.config import SimulatorConfig
from ..common.errors import SimulationError
from ..common.statistics import ratio
from ..power.decoder import DecoderPowerModel
from ..telemetry.hub import TelemetryHub
from ..uopcache.cache import UopCache
from ..workloads.trace import Trace
from .metrics import SimulationResult
from .simulator import Simulator


@dataclass
class SmtResult:
    """Results of an SMT run: per-thread results plus shared-cache stats."""

    per_thread: List[SimulationResult]
    config_label: str

    @property
    def total_uops(self) -> int:
        return sum(result.uops for result in self.per_thread)

    @property
    def cycles(self) -> int:
        return max(result.cycles for result in self.per_thread)

    @property
    def aggregate_upc(self) -> float:
        """Total uops over the longest thread's cycles (system throughput)."""
        return ratio(self.total_uops, self.cycles)

    @property
    def aggregate_fetch_ratio(self) -> float:
        supplied = sum(result.uops for result in self.per_thread)
        from_oc = sum(result.uops_from_uop_cache
                      for result in self.per_thread)
        return ratio(from_oc, supplied)

    def summary(self) -> Dict[str, float]:
        return {
            "aggregate_upc": self.aggregate_upc,
            "aggregate_fetch_ratio": self.aggregate_fetch_ratio,
            "cycles": self.cycles,
            "total_uops": self.total_uops,
        }


class SmtSimulator:
    """Interleaves N hardware threads over a shared uop cache."""

    def __init__(self, traces: Sequence[Trace],
                 config: Optional[SimulatorConfig] = None,
                 config_label: str = "smt",
                 telemetry: Optional[TelemetryHub] = None) -> None:
        if len(traces) < 2:
            raise SimulationError("SMT simulation needs at least two threads")
        self.config = config or SimulatorConfig()
        self.config_label = config_label
        line_bytes = self.config.memory.l1i.line_bytes

        # One hub is shared by every thread and by the shared structures, so
        # the merged stream is ordered exactly as the coordinator interleaved
        # the threads; per-thread events carry a ``tid`` for the trace view.
        if telemetry is None and self.config.telemetry.enabled:
            telemetry = TelemetryHub.from_config(self.config.telemetry)
        self.telemetry = telemetry

        self.uop_cache = UopCache(self.config.uop_cache,
                                  icache_line_bytes=line_bytes,
                                  telemetry=telemetry)
        self.hierarchy = MemoryHierarchy(self.config.memory)
        self.decoder_power = DecoderPowerModel(self.config.power)
        self.threads = [
            Simulator(trace, self.config,
                      config_label=f"{config_label}/t{index}",
                      shared_uop_cache=self.uop_cache,
                      shared_hierarchy=self.hierarchy,
                      shared_decoder_power=self.decoder_power,
                      telemetry=telemetry)
            for index, trace in enumerate(traces)]
        for index, thread in enumerate(self.threads):
            thread.telemetry_tid = index
            if thread._interval is not None:
                thread._interval.tid = index

    def run(self) -> SmtResult:
        """Advance the thread with the earliest front-end cycle until all
        traces complete."""
        generators = [thread.steps() for thread in self.threads]
        clocks = [0] * len(generators)
        live = set(range(len(generators)))
        # Closure captures ``clocks`` by reference, so one lambda serves
        # every iteration.
        priority = lambda index: (clocks[index], index)  # noqa: E731

        while live:
            # Pick the live thread with the smallest front-end clock; ties
            # resolve to the lowest thread id (fixed priority, as in a real
            # fetch arbiter).
            thread_id = min(live, key=priority)
            try:
                clocks[thread_id] = next(generators[thread_id])
            except StopIteration:
                live.discard(thread_id)

        return SmtResult(
            per_thread=[thread.collect() for thread in self.threads],
            config_label=self.config_label)


def simulate_smt(traces: Sequence[Trace],
                 config: Optional[SimulatorConfig] = None,
                 config_label: str = "smt") -> SmtResult:
    """Convenience one-shot SMT simulation."""
    return SmtSimulator(traces, config, config_label).run()
