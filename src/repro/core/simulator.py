"""The trace-driven cycle-level simulator.

One :class:`Simulator` instance runs one trace against one configuration and
produces a :class:`~repro.core.metrics.SimulationResult`.

Model outline (see DESIGN.md for rationale):

- The resolved trace is segmented into prediction windows (PWs).  The
  front-end processes PWs in order, maintaining ``fe_cycle``, the cycle at
  which the next fetch action can start.
- For each PW (or continuation point inside it) the uop cache is probed with
  the current fetch address.  A hit dispatches one entry per cycle, uops
  arriving at ``fe_cycle + oc_fetch_latency``.  Under CLASP, a hit entry may
  extend past the current PW into sequential successors; the fetch logic
  follows the entry's end address, consuming those records in the same
  dispatch.
- A miss sends the rest of the PW down the IC path: I-cache access (through
  the hierarchy, with next-line prefetch), 4-wide decode with a 3-cycle
  decode latency, decoder energy accounting, and entry accumulation + uop
  cache fill.
- Every dynamic branch consults the branch prediction unit.  A BTB-type
  resteer adds a fixed decode-redirect bubble.  A misprediction stalls
  fetch until the branch's *resolution* (its completion in the back-end)
  plus a redirect penalty — so uops fed from the shorter uop-cache path
  resolve earlier, reproducing the paper's latency benefit.
- The back-end (ROB/queue occupancy, width limits) timestamps every uop;
  UPC and dispatch bandwidth come from its counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..backend.core import OutOfOrderBackend
from ..branch.predictor import BranchPredictionUnit, PredictionOutcome
from ..branch.window import PredictionWindowBuilder
from ..caches.hierarchy import MemoryHierarchy
from ..common.config import SimulatorConfig
from ..common.errors import CacheError, SimulationError
from ..common.statistics import Histogram
from ..frontend.loopcache import LoopCache
from ..isa.uop import UopKind
from ..power.decoder import DecoderPowerModel
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub
from ..telemetry.interval import IntervalTracker
from ..uopcache.builder import AccumulationBuffer
from ..uopcache.cache import UopCache
from ..workloads.trace import Trace
from .metrics import SimulationResult

#: Fixed front-end penalties (cycles).
MISPREDICT_REDIRECT_PENALTY = 2   # flush + refetch overhead beyond resolution
DECODE_RESTEER_PENALTY = 3        # BTB-miss redirect discovered at decode

#: Strict mode: fetch actions between full invariant sweeps (the per-action
#: monotonicity check is always on; the structural checks walk the whole uop
#: cache, so they run on a stride).
INVARIANT_CHECK_INTERVAL = 4096


class Simulator:
    """Runs one trace under one configuration."""

    def __init__(self, trace: Trace,
                 config: Optional[SimulatorConfig] = None,
                 config_label: str = "",
                 shared_uop_cache: Optional[UopCache] = None,
                 shared_hierarchy: Optional[MemoryHierarchy] = None,
                 shared_decoder_power: Optional[DecoderPowerModel] = None,
                 strict: bool = False,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        """``shared_*`` lets several simulators (SMT hardware threads) share
        structures; see :class:`repro.core.smt.SmtSimulator`.

        ``strict`` enables the runtime invariant checker: cycle monotonicity
        is validated on every fetch action and the conservation/occupancy/
        structural checks run every :data:`INVARIANT_CHECK_INTERVAL` actions
        and at collection, raising :class:`SimulationError` with diagnostic
        context on any inconsistency.  Long-running sweeps use it so a
        corrupted simulation fails loudly instead of producing bad numbers.

        ``telemetry`` attaches a :class:`TelemetryHub` explicitly (the SMT
        coordinator shares one hub across threads); when omitted, a hub is
        built iff ``config.telemetry.enabled``.  Without either, every
        instrumented structure holds ``None`` and the hot paths pay one
        ``is not None`` test per serving action.
        """
        self.trace = trace
        self.config = config or SimulatorConfig()
        cfg = self.config
        self.config_label = config_label or self._default_label()
        line_bytes = cfg.memory.l1i.line_bytes

        if telemetry is None and cfg.telemetry.enabled:
            telemetry = TelemetryHub.from_config(cfg.telemetry)
        self.telemetry = telemetry
        #: Chrome-trace thread id; the SMT coordinator renumbers its threads.
        self.telemetry_tid = 0

        self.hierarchy = shared_hierarchy or MemoryHierarchy(cfg.memory)
        self.uop_cache = shared_uop_cache or \
            UopCache(cfg.uop_cache, icache_line_bytes=line_bytes,
                     telemetry=telemetry)
        self.accumulator = AccumulationBuffer(cfg.uop_cache,
                                              icache_line_bytes=line_bytes,
                                              telemetry=telemetry)
        self.bpu = BranchPredictionUnit(cfg.branch)
        self.loop_cache = LoopCache(cfg.loop_cache, telemetry=telemetry)
        self.backend = OutOfOrderBackend(cfg.core, self.hierarchy)
        self.decoder_power = shared_decoder_power or \
            DecoderPowerModel(cfg.power)
        self.pw_builder = PredictionWindowBuilder(
            trace, line_bytes=line_bytes, config=cfg.branch)

        self._line_bytes = line_bytes
        self._entries_per_pw = Histogram("entries_per_pw")
        # Running counters.
        self._uops_from_oc = 0
        self._uops_from_ic = 0
        self._uops_from_loop = 0
        self._mispredicts = 0
        self._mispredict_latency_sum = 0
        self._instructions_done = 0
        #: Uops admitted since the last taken branch (approximates the body
        #: size of a candidate loop for the loop cache).
        self._seq_run_uops = 0
        #: Counter values at the warmup boundary (None until taken).
        self._warmup_snapshot: Optional[Dict[str, int]] = None
        # Fig. 12 bookkeeping: entries served for the PW currently in flight.
        self._pw_in_flight: Optional[int] = None
        self._pw_entry_count = 0
        # Cycle accounting (where front-end time goes).
        self.fe_cycles_oc = 0          # cycles advancing the OC dispatch path
        self.fe_cycles_ic = 0          # cycles advancing the decode path
        self.fe_cycles_redirect = 0    # cycles waiting on branch redirects
        self.fe_cycles_backpressure = 0  # cycles stalled on uop-queue space
        # Strict-mode invariant checking.
        self.strict = strict
        self._max_fe_cycle = 0
        self._max_backend_cycle = 0
        self._fetch_actions = 0
        # Telemetry bookkeeping (all unused when self.telemetry is None).
        self._interval = IntervalTracker(telemetry,
                                         cfg.telemetry.interval_cycles) \
            if telemetry is not None else None
        self._last_fetch_source: Optional[str] = None
        self._last_fe_cycle = 0

    def _default_label(self) -> str:
        oc = self.config.uop_cache
        parts = [f"oc{oc.capacity_uops}"]
        if oc.clasp:
            parts.append("clasp")
        if oc.compaction.value != "none":
            parts.append(oc.compaction.value)
        return "+".join(parts)

    # ------------------------------------------------------------------ run

    def run(self) -> SimulationResult:
        """Run the whole trace and return the results.

        With ``config.fast_mode`` (and no telemetry hub, which the config
        layer already rejects) the counters-only specialized serve loop in
        :mod:`repro.core.fastpath` runs instead of draining :meth:`steps`;
        it produces a bit-identical result (tests/test_fast_mode.py).  A
        hub attached explicitly by a coordinator wins over fast mode.
        """
        if self.config.fast_mode and self.telemetry is None:
            # Imported here: fastpath imports from this module.
            from .fastpath import FastPath
            FastPath(self).run()
            return self.collect()
        for _ in self.steps():
            pass
        return self.collect()

    def steps(self):
        """Generator form of :meth:`run`: yields the front-end cycle after
        each fetch action, so a coordinator (e.g. the SMT simulator) can
        interleave several hardware threads over shared structures."""
        trace = self.trace
        records = trace.records
        cfg = self.config
        oc = self.uop_cache
        accumulator = self.accumulator
        backend = self.backend
        decode_bw = cfg.decoder.bandwidth_insts_per_cycle
        decode_latency = cfg.decoder.latency_cycles
        oc_latency = cfg.uop_cache.fetch_latency_cycles
        max_insts = cfg.max_instructions or len(records)
        limit = min(len(records), max_insts)

        fe_cycle = 0
        cursor = 0
        windows = self.pw_builder.windows()
        pw = next(windows)
        warmup = cfg.warmup_instructions
        tel = self.telemetry
        tel_insts = tel_uops = 0
        # Prebound methods: these run on every fetch action.
        emit_fetch = self._emit_fetch_action
        observe_fetch = self._observe_fetch_action
        oc_fill = oc.fill

        while cursor < limit:
            if warmup and self._warmup_snapshot is None and \
                    self._instructions_done >= warmup:
                self._take_warmup_snapshot()
            # Advance to the PW containing the cursor (entries served under
            # CLASP may have consumed whole windows).
            while pw.last < cursor:
                pw = next(windows)

            backpressure = backend.queue_backpressure_cycle
            if backpressure > fe_cycle:
                self.fe_cycles_backpressure += backpressure - fe_cycle
                fe_cycle = backpressure
            pw_fetch_cycle = fe_cycle
            if pw.first != self._pw_in_flight:
                if self._pw_in_flight is not None and self._pw_entry_count:
                    self._entries_per_pw.record(self._pw_entry_count)
                self._pw_in_flight = pw.first
                self._pw_entry_count = 0
            entries_this_pw = 0
            pc = records[cursor].pc
            if tel is not None:
                tel.cycle = fe_cycle
                tel_insts = self._instructions_done
                tel_uops = (self._uops_from_oc + self._uops_from_ic +
                            self._uops_from_loop)

            if self.loop_cache.active and \
                    pc == self.loop_cache.active_target:
                cursor, fe_cycle, redirect = self._serve_from_loop_cache(
                    cursor, limit, fe_cycle, pw_fetch_cycle)
                if redirect > fe_cycle:
                    self.fe_cycles_redirect += redirect - fe_cycle
                    fe_cycle = redirect
                if tel is not None:
                    emit_fetch(tel, "loop", tel_uops, tel_insts,
                               fe_cycle)
                if self.strict:
                    observe_fetch(fe_cycle)
                yield fe_cycle
                continue

            entry = oc.lookup(pc)
            if entry is not None:
                # Supply switches to the uop cache path: install any partial
                # accumulated entry (the accumulation buffer drains on path
                # switch, as after the decoder goes idle in hardware).
                for sealed in accumulator.flush():
                    oc_fill(sealed)
                cursor, fe_cycle, redirect = self._serve_from_uop_cache(
                    entry, cursor, limit, fe_cycle, oc_latency,
                    pw_fetch_cycle)
                entries_this_pw += 1
            else:
                end = min(pw.last, limit - 1)
                cursor, fe_cycle, redirect, sealed = self._serve_from_decoder(
                    cursor, end, fe_cycle, decode_bw, decode_latency,
                    pw_fetch_cycle, pw.pw_id)
                entries_this_pw += sealed

            self._pw_entry_count += entries_this_pw
            if redirect > fe_cycle:
                self.fe_cycles_redirect += redirect - fe_cycle
                fe_cycle = redirect
            if tel is not None:
                emit_fetch(
                    tel, "oc" if entry is not None else "ic",
                    tel_uops, tel_insts, fe_cycle)
            if self.strict:
                observe_fetch(fe_cycle)
            yield fe_cycle

    def supply_counters(self) -> Dict[str, int]:
        """Architectural supply-path counters, as a flat name->value dict.

        This is the comparison surface of the differential oracle
        (:mod:`repro.oracle`): every counter here is a pure function of the
        architectural front-end state — no timing, no power, no back-end
        occupancy — so a correct reference model must reproduce each value
        exactly after every fetch action.
        """
        oc = self.uop_cache
        counters = {
            "instructions": self._instructions_done,
            "uops_oc": self._uops_from_oc,
            "uops_ic": self._uops_from_ic,
            "uops_loop": self._uops_from_loop,
            "oc_hits": oc.hits,
            "oc_misses": oc.misses,
            "oc_fills": oc.fills,
            "oc_uops_delivered": oc.uops_delivered,
            "oc_duplicate_fills": oc.duplicate_fills,
            "oc_evicted_entries": oc.evicted_entries,
            "oc_invalidated_entries": oc.invalidated_entries,
            "bypassed_uops": self.accumulator.bypassed_uops,
            "branches": self.bpu.branches,
            "mispredicts": self._mispredicts,
            "resteers": self.bpu.decode_resteers,
        }
        for kind, count in self.uop_cache.fill_kind_counts.items():
            counters[f"fill_{kind.value}"] = count
        for reason, count in self.uop_cache.termination_counts.items():
            counters[f"term_{reason.value}"] = count
        counters.update(self.loop_cache.snapshot())
        return counters

    def collect(self) -> SimulationResult:
        """Build the results object for the work simulated so far."""
        if self._pw_entry_count:
            self._entries_per_pw.record(self._pw_entry_count)
            self._pw_entry_count = 0
        if self.strict:
            self.check_invariants()
        if self._interval is not None:
            self.telemetry.cycle = self._last_fe_cycle
            self._interval.finish(self._last_fe_cycle)
        return self._collect(self.backend.last_cycle)

    # ----------------------------------------------------------- telemetry

    def _emit_fetch_action(self, tel: TelemetryHub, source: str,
                           uops_before: int, insts_before: int,
                           fe_cycle: int) -> None:
        """Emit the fetch-source events for one completed serving action."""
        uops_total = (self._uops_from_oc + self._uops_from_ic +
                      self._uops_from_loop)
        if source != self._last_fetch_source:
            if self._last_fetch_source is not None:
                tel.emit(EventKind.FETCH_TRANSITION,
                         src=self._last_fetch_source, dst=source,
                         tid=self.telemetry_tid)
            self._last_fetch_source = source
        tel.emit(EventKind.FETCH_ACTION, source=source,
                 uops=uops_total - uops_before,
                 insts=self._instructions_done - insts_before,
                 tid=self.telemetry_tid)
        self._last_fe_cycle = fe_cycle
        if self._interval is not None:
            self._interval.update(fe_cycle, self._instructions_done,
                                  uops_total)

    # ---------------------------------------------------- invariant checking

    def _diagnostics(self) -> str:
        """Context appended to every invariant-violation message."""
        return (f" [workload={self.trace.name!r}"
                f" config={self.config_label!r}"
                f" instructions={self._instructions_done}"
                f" fe_cycle={self._max_fe_cycle}"
                f" backend_cycle={self.backend.last_cycle}"
                f" uops(oc={self._uops_from_oc} ic={self._uops_from_ic}"
                f" loop={self._uops_from_loop})"
                f" admitted={self.backend.uops_retired}]")

    def _observe_fetch_action(self, fe_cycle: int) -> None:
        """Strict-mode per-action hook: cycle monotonicity plus a strided
        full invariant sweep (see :data:`INVARIANT_CHECK_INTERVAL`)."""
        if fe_cycle < self._max_fe_cycle:
            raise SimulationError(
                f"front-end cycle moved backwards: {fe_cycle} < "
                f"{self._max_fe_cycle}" + self._diagnostics())
        self._max_fe_cycle = fe_cycle
        backend_cycle = self.backend.last_cycle
        if backend_cycle < self._max_backend_cycle:
            raise SimulationError(
                f"back-end cycle moved backwards: {backend_cycle} < "
                f"{self._max_backend_cycle}" + self._diagnostics())
        self._max_backend_cycle = backend_cycle
        self._fetch_actions += 1
        if self._fetch_actions % INVARIANT_CHECK_INTERVAL == 0:
            self.check_invariants()

    def check_invariants(self) -> None:
        """Validate simulator-wide consistency; raise :class:`SimulationError`.

        Checks (beyond the per-action cycle monotonicity):

        - **uop conservation** — every uop admitted to the back-end came from
          exactly one supply path, so uop-cache + decoder + loop-cache supply
          must equal the back-end's admitted count;
        - **uop-cache occupancy** — resident uops can never exceed the
          physical capacity (lines x uops that fit per line);
        - **structural** — the uop cache's own line/index invariants
          (delegated to :meth:`UopCache.check_invariants`).
        """
        supplied = (self._uops_from_oc + self._uops_from_ic +
                    self._uops_from_loop)
        admitted = self.backend.uops_retired
        if supplied != admitted:
            raise SimulationError(
                f"uop conservation violated: supplied {supplied} != "
                f"admitted {admitted}" + self._diagnostics())
        oc_cfg = self.config.uop_cache
        uops_per_line = oc_cfg.usable_line_bytes // oc_cfg.uop_bytes
        physical_capacity = (oc_cfg.num_sets * oc_cfg.associativity *
                             max(oc_cfg.max_uops_per_entry, uops_per_line))
        resident = self.uop_cache.resident_uops()
        if resident > physical_capacity:
            raise SimulationError(
                f"uop cache occupancy {resident} exceeds physical capacity "
                f"{physical_capacity}" + self._diagnostics())
        try:
            self.uop_cache.check_invariants()
        except CacheError as error:
            raise SimulationError(
                f"uop cache structural invariant violated: {error}" +
                self._diagnostics()) from error

    # ------------------------------------------------------- loop cache path

    def _note_taken_branch(self, pc: int, target: int) -> None:
        """Report a resolved taken branch to the loop cache detector."""
        if self.config.loop_cache.enabled:
            self.loop_cache.observe_taken_branch(
                pc, target, body_uops=self._seq_run_uops)
        self._seq_run_uops = 0

    def _serve_from_loop_cache(self, cursor: int, limit: int, fe_cycle: int,
                               pw_fetch_cycle: int) -> Tuple[int, int, int]:
        """Stream iterations of the locked loop from the loop buffer.

        While locked, uops bypass the I-cache, decoder AND uop cache; delivery
        is only bandwidth-limited. Returns (cursor, fe_cycle, redirect).
        """
        trace = self.trace
        program = trace.program
        records = trace.records
        backend = self.backend
        loop_cache = self.loop_cache
        target = loop_cache.active_target
        branch_pc = loop_cache.active_branch_pc
        bandwidth = self.config.uop_cache.bandwidth_uops_per_cycle
        admit = backend.admit
        observe_other = loop_cache.observe_other_flow
        load_kind = UopKind.LOAD
        redirect = 0
        uops_served = 0

        while cursor < limit:
            record = records[cursor]
            pc = record.pc
            if not (target <= pc <= branch_pc):
                observe_other()
                break
            inst = program.at(pc)
            uops = program.uops_at(pc)
            arrival = fe_cycle + 1 + uops_served // bandwidth
            timing = None
            mem_addr = record.mem_addr
            for uop in uops:
                mem = mem_addr if uop.kind is load_kind else None
                timing = admit(uop, arrival, mem)
            self._uops_from_loop += len(uops)
            self._seq_run_uops += len(uops)
            uops_served += len(uops)
            self._instructions_done += 1
            cursor += 1

            taken = record.next_pc != inst.end_address
            if inst.is_branch:
                outcome = self.bpu.observe(inst, taken, record.next_pc)
                if outcome is PredictionOutcome.MISPREDICT:
                    resolve = timing.complete if timing else arrival
                    self._mispredicts += 1
                    self._mispredict_latency_sum += max(
                        0, resolve - pw_fetch_cycle)
                    redirect = resolve + MISPREDICT_REDIRECT_PENALTY
                    observe_other()
                    self._seq_run_uops = 0
                    break
            if taken:
                if pc == branch_pc and record.next_pc == target:
                    loop_cache.observe_taken_branch(
                        pc, record.next_pc, body_uops=self._seq_run_uops)
                    self._seq_run_uops = 0
                    continue        # next iteration streams back-to-back
                observe_other()
                self._seq_run_uops = 0
                break

        fe_cycle += max(1, (uops_served + bandwidth - 1) // bandwidth)
        return cursor, fe_cycle, redirect

    # ------------------------------------------------------- uop cache path

    def _serve_from_uop_cache(self, entry, cursor: int, limit: int,
                              fe_cycle: int, oc_latency: int,
                              pw_fetch_cycle: int) -> Tuple[int, int, int]:
        """Dispatch one uop cache entry; returns (cursor, fe_cycle, redirect)."""
        trace = self.trace
        program = trace.program
        records = trace.records
        backend = self.backend
        arrival = fe_cycle + oc_latency
        admit = backend.admit
        note_taken = self._note_taken_branch
        load_kind = UopKind.LOAD
        redirect = 0
        start, end = entry.start_pc, entry.end_pc

        while cursor < limit:
            record = records[cursor]
            pc = record.pc
            if not (start <= pc < end):
                break
            inst = program.at(pc)
            uops = program.uops_at(pc)
            self._uops_from_oc += len(uops)
            self._seq_run_uops += len(uops)
            timing = None
            mem_addr = record.mem_addr
            for uop in uops:
                mem = mem_addr if uop.kind is load_kind else None
                timing = admit(uop, arrival, mem)
            self._instructions_done += 1
            cursor += 1
            taken = record.next_pc != inst.end_address
            if inst.is_branch:
                outcome = self.bpu.observe(inst, taken, record.next_pc)
                if outcome is PredictionOutcome.MISPREDICT:
                    resolve = timing.complete if timing else arrival
                    self._mispredicts += 1
                    self._mispredict_latency_sum += max(
                        0, resolve - pw_fetch_cycle)
                    redirect = resolve + MISPREDICT_REDIRECT_PENALTY
                    self._seq_run_uops = 0
                    break
                if outcome is PredictionOutcome.DECODE_RESTEER:
                    redirect = fe_cycle + 1 + DECODE_RESTEER_PENALTY
                    if taken:
                        note_taken(pc, record.next_pc)
                    break
            if taken:
                note_taken(pc, record.next_pc)
                break   # control flow left the entry's sequential range

        # One entry dispatches per cycle (up to 8 uops wide).
        self.fe_cycles_oc += 1
        return cursor, fe_cycle + 1, redirect

    # --------------------------------------------------------- decoder path

    def _serve_from_decoder(self, cursor: int, last: int, fe_cycle: int,
                            decode_bw: int, decode_latency: int,
                            pw_fetch_cycle: int,
                            pw_id: int) -> Tuple[int, int, int, int]:
        """Fetch+decode records[cursor..last]; returns
        (cursor, fe_cycle, redirect, entries_sealed)."""
        trace = self.trace
        program = trace.program
        records = trace.records
        backend = self.backend
        oc = self.uop_cache
        accumulator = self.accumulator
        accumulator.begin(pw_id)
        admit = backend.admit
        oc_fill = oc.fill
        acc_push = accumulator.push
        note_taken = self._note_taken_branch
        load_kind = UopKind.LOAD

        first_pc = records[cursor].pc
        # On an OC miss the IC path restarts serially: the I-cache access must
        # complete, then the decode pipeline refills, before uops stream at
        # decoder bandwidth.
        fetch_latency = self.hierarchy.fetch_instruction_line(first_pc)
        base = fe_cycle + fetch_latency + decode_latency
        slot = 0
        redirect = 0
        sealed_count = 0
        decoded = 0

        while cursor <= last:
            record = records[cursor]
            pc = record.pc
            inst = program.at(pc)
            if inst.spans_line_boundary(self._line_bytes):
                self.hierarchy.fetch_instruction_line(inst.end_address - 1)
            uops = program.uops_at(pc)
            arrival = base + slot // decode_bw
            timing = None
            mem_addr = record.mem_addr
            for uop in uops:
                mem = mem_addr if uop.kind is load_kind else None
                timing = admit(uop, arrival, mem)
            self._uops_from_ic += len(uops)
            self._seq_run_uops += len(uops)
            self._instructions_done += 1
            decoded += 1
            slot += 1
            cursor += 1

            taken = record.next_pc != inst.end_address
            for entry in acc_push(uops, taken):
                oc_fill(entry)
                sealed_count += 1

            if inst.is_branch:
                outcome = self.bpu.observe(inst, taken, record.next_pc)
                if outcome is PredictionOutcome.MISPREDICT:
                    resolve = timing.complete if timing else arrival
                    self._mispredicts += 1
                    self._mispredict_latency_sum += max(
                        0, resolve - pw_fetch_cycle)
                    redirect = resolve + MISPREDICT_REDIRECT_PENALTY
                    self._seq_run_uops = 0
                    break
                if outcome is PredictionOutcome.DECODE_RESTEER:
                    redirect = (fe_cycle + fetch_latency +
                                slot // decode_bw + DECODE_RESTEER_PENALTY)
                    if taken:
                        note_taken(pc, record.next_pc)
                    break
            if taken:
                note_taken(pc, record.next_pc)

        decode_cycles = (decoded + decode_bw - 1) // decode_bw
        self.decoder_power.record_decode_burst(decoded, decode_cycles)
        # The decode pipeline restarts when supply switches from the uop cache
        # to the decoder, so a chunk costs its full startup latency plus the
        # bandwidth-limited streaming cycles (the "pipeline bubbles due to the
        # complexities in decoding x86 instructions" the paper describes).
        advance = fetch_latency + decode_latency + decode_cycles
        self.fe_cycles_ic += advance
        fe_cycle = fe_cycle + advance
        return cursor, fe_cycle, redirect, sealed_count

    # ------------------------------------------------------------- warmup

    def _take_warmup_snapshot(self) -> None:
        """Record counter values at the warmup boundary.

        ``_collect`` subtracts these so reported rates cover only the
        measured region. Distribution stats (entry sizes, terminations,
        fill kinds, entries-per-PW) intentionally keep full-run data: they
        describe structure, not rates.
        """
        oc = self.uop_cache
        self._warmup_snapshot = {
            "cycle": self.backend.last_cycle,
            "instructions": self._instructions_done,
            "uops_oc": self._uops_from_oc,
            "uops_ic": self._uops_from_ic,
            "uops_loop": self._uops_from_loop,
            "busy_dispatch": self.backend.busy_dispatch_cycles,
            "oc_hits": oc.hits,
            "oc_misses": oc.misses,
            "oc_fills": oc.fills,
            "branches": self.bpu.branches,
            "mispredicts": self._mispredicts,
            "resteers": self.bpu.decode_resteers,
            "mispredict_latency_sum": self._mispredict_latency_sum,
            "fe_cycles_oc": self.fe_cycles_oc,
            "fe_cycles_ic": self.fe_cycles_ic,
            "fe_cycles_redirect": self.fe_cycles_redirect,
            "fe_cycles_backpressure": self.fe_cycles_backpressure,
            "decoded_insts": self.decoder_power.insts_decoded,
            "decoder_active": self.decoder_power.active_cycles,
        }

    # -------------------------------------------------------------- results

    def _collect(self, final_cycle: int) -> SimulationResult:
        oc = self.uop_cache
        snap = self._warmup_snapshot or {}
        base = snap.get
        result = SimulationResult(
            workload=self.trace.name,
            config_label=self.config_label,
        )
        result.cycles = max(1, final_cycle - base("cycle", 0))
        result.instructions = self._instructions_done - base("instructions", 0)
        result.uops_from_uop_cache = self._uops_from_oc - base("uops_oc", 0)
        result.uops_from_decoder = self._uops_from_ic - base("uops_ic", 0)
        result.uops_from_loop_cache = \
            self._uops_from_loop - base("uops_loop", 0)
        result.uops = (result.uops_from_uop_cache + result.uops_from_decoder +
                       result.uops_from_loop_cache)
        result.busy_dispatch_cycles = \
            self.backend.busy_dispatch_cycles - base("busy_dispatch", 0)
        result.uop_cache_hits = oc.hits - base("oc_hits", 0)
        result.uop_cache_lookups = result.uop_cache_hits + \
            (oc.misses - base("oc_misses", 0))
        result.uop_cache_fills = oc.fills - base("oc_fills", 0)
        result.entry_size_histogram = oc.entry_size_histogram
        result.entry_termination_counts = oc.termination_counts
        result.fill_kind_counts = oc.fill_kind_counts
        result.entries_spanning_lines_fraction = oc.spanning_fill_fraction
        result.compacted_fill_fraction = oc.compacted_fill_fraction
        result.compacted_line_fraction = oc.compacted_line_fraction()
        result.entries_per_pw_histogram = self._entries_per_pw
        result.uop_cache_utilization = oc.utilization()
        result.branches = self.bpu.branches - base("branches", 0)
        result.branch_mispredicts = self._mispredicts - base("mispredicts", 0)
        result.decode_resteers = \
            self.bpu.decode_resteers - base("resteers", 0)
        result.mispredict_latency_sum = \
            self._mispredict_latency_sum - base("mispredict_latency_sum", 0)
        result.fe_cycles_uop_cache = self.fe_cycles_oc - base("fe_cycles_oc", 0)
        result.fe_cycles_decoder = self.fe_cycles_ic - base("fe_cycles_ic", 0)
        result.fe_cycles_redirect = \
            self.fe_cycles_redirect - base("fe_cycles_redirect", 0)
        result.fe_cycles_backpressure = \
            self.fe_cycles_backpressure - base("fe_cycles_backpressure", 0)
        decoded = self.decoder_power.insts_decoded - base("decoded_insts", 0)
        active = self.decoder_power.active_cycles - base("decoder_active", 0)
        measured_power = DecoderPowerModel(self.config.power)
        measured_power.record_decode_burst(decoded, active)
        result.decoder_report = measured_power.report(result.cycles)
        result.l1i_hit_rate = self.hierarchy.l1i.hit_rate
        result.l1d_hit_rate = self.hierarchy.l1d.hit_rate
        if self.telemetry is not None:
            # Full-run event counts (telemetry streams are never warmup-
            # adjusted; see repro.telemetry.replay for the implications).
            result.telemetry_events = self.telemetry.summary()
        return result


def simulate(trace: Trace, config: Optional[SimulatorConfig] = None,
             config_label: str = "") -> SimulationResult:
    """Convenience one-shot simulation."""
    return Simulator(trace, config, config_label).run()
