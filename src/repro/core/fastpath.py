"""Counters-only fast serve loop (``config.fast_mode``).

A specialization of :meth:`Simulator.steps` that produces a bit-identical
:class:`~repro.core.metrics.SimulationResult` while stripping everything the
counters don't need.  Both loops call the same front-end methods:
:meth:`UopCache.lookup` (its telemetry behind one ``is not None`` guard),
:meth:`BranchPredictionUnit.observe` (the fused TAGE walk serves
conditional branches in either loop),
:meth:`MemoryHierarchy.fetch_instruction_line` and
:meth:`MemoryHierarchy.access_data`.  What stays specific to this loop:

- **no telemetry** — the ``tel is not None`` tests and per-action event
  bookkeeping disappear entirely (fast mode refuses a telemetry hub at the
  config layer);
- **no per-uop object churn** — the back-end admits whole instructions via
  :meth:`OutOfOrderBackend.admit_inst`, skipping one frozen ``UopTiming``
  dataclass per uop (the one batched twin left: the stepped loop still
  calls :meth:`OutOfOrderBackend.admit` per uop);
- **precomputed trace views** — per-record PCs, memory addresses, resolved
  taken flags, uop tuples and static execution latencies are materialized
  into flat lists up front, replacing per-action ``program.at`` /
  ``uops_at`` / property dispatch;
- **hoisted state** — hot counters live in locals for the whole run and are
  written back to the simulator at the few points that can observe them
  (warmup snapshot, strict invariant hooks, the loop-cache path, the end of
  the run).

Equivalence is not an aspiration but a test target: the oracle differential
runner, every golden snapshot, and hypothesis property tests all assert the
fast and normal paths agree (see tests/test_fast_mode.py).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..isa.uop import _EXEC_LATENCY, UopKind
from ..workloads.trace import Trace
from .simulator import (DECODE_RESTEER_PENALTY, MISPREDICT_REDIRECT_PENALTY,
                        Simulator)

#: Sentinel in a static-latency tuple marking a load that must resolve
#: through the data hierarchy (see ``OutOfOrderBackend.admit_inst``).
_LOAD_SENTINEL = -1


class TraceView:
    """Flat per-record arrays precomputed from a trace + program.

    Everything here — including the prediction-window segmentation — is a
    pure function of the static program, the resolved trace, the I-cache
    line size and the PW not-taken limit, so hoisting it out of the serve
    loop cannot change any simulated outcome.
    """

    __slots__ = ("pcs", "next_pcs", "mem_addrs", "takens", "uops", "nuops",
                 "latencies", "insts", "is_branch", "spans_line",
                 "span_tail_pcs", "pw_firsts", "pw_lasts", "pw_ids")

    def __init__(self, trace: Trace, line_bytes: int,
                 max_not_taken: int) -> None:
        program = trace.program
        records = trace.records
        n = len(records)
        self.pcs: List[int] = [0] * n
        self.next_pcs: List[int] = [0] * n
        self.mem_addrs: List[Optional[int]] = [None] * n
        self.takens: List[bool] = [False] * n
        self.uops: List[tuple] = [()] * n
        self.nuops: List[int] = [0] * n
        self.latencies: List[Tuple[int, ...]] = [()] * n
        self.insts: List[object] = [None] * n
        self.is_branch: List[bool] = [False] * n
        self.spans_line: List[bool] = [False] * n
        #: Last-byte address of instructions spanning an I-cache line
        #: boundary (the extra fetch probe target), else 0.
        self.span_tail_pcs: List[int] = [0] * n

        static: Dict[int, tuple] = {}
        is_uncond: List[bool] = [False] * n
        for i, record in enumerate(records):
            pc = record.pc
            info = static.get(pc)
            if info is None:
                inst = program.at(pc)
                uops = program.uops_at(pc)
                lats = tuple(
                    _LOAD_SENTINEL if uop.kind is UopKind.LOAD
                    else _EXEC_LATENCY[uop.kind]
                    for uop in uops)
                spans = inst.spans_line_boundary(line_bytes)
                info = (inst, uops, len(uops), lats, inst.is_branch,
                        inst.end_address, spans,
                        inst.end_address - 1 if spans else 0,
                        inst.is_unconditional_transfer)
                static[pc] = info
            inst, uops, nuops, lats, is_br, end_addr, spans, tail, \
                uncond = info
            self.pcs[i] = pc
            self.next_pcs[i] = record.next_pc
            self.mem_addrs[i] = record.mem_addr
            self.takens[i] = record.next_pc != end_addr
            self.uops[i] = uops
            self.nuops[i] = nuops
            self.latencies[i] = lats
            self.insts[i] = inst
            self.is_branch[i] = is_br
            self.spans_line[i] = spans
            self.span_tail_pcs[i] = tail
            is_uncond[i] = uncond

        # Prediction-window segmentation (mirrors
        # PredictionWindowBuilder.windows(); only the first/last record
        # indices and the pw_id are consumed by the serve loop).
        pw_firsts: List[int] = []
        pw_lasts: List[int] = []
        pw_ids: List[int] = []
        pcs = self.pcs
        next_pcs = self.next_pcs
        takens = self.takens
        is_branch = self.is_branch
        index = 0
        while index < n:
            first = index
            start_pc = pcs[index]
            start_line = start_pc // line_bytes
            not_taken_seen = 0
            while True:
                idx = index
                index += 1
                if is_branch[idx] and (takens[idx] or is_uncond[idx]):
                    break
                if is_branch[idx]:
                    not_taken_seen += 1
                    if not_taken_seen >= max_not_taken:
                        break
                if next_pcs[idx] // line_bytes != start_line:
                    break
                if index >= n:
                    break
            pw_firsts.append(first)
            pw_lasts.append(index - 1)
            pw_ids.append(start_pc)
        self.pw_firsts = pw_firsts
        self.pw_lasts = pw_lasts
        self.pw_ids = pw_ids


#: Per-trace view cache: Trace objects are immutable and the experiment
#: layer LRU-caches them, so repeated runs (bench repeats, design sweeps
#: over one workload) reuse the precomputed arrays.  Keyed weakly so views
#: die with their traces.
_VIEW_CACHE: "weakref.WeakKeyDictionary[Trace, Dict[Tuple[int, int], TraceView]]" = \
    weakref.WeakKeyDictionary()


def trace_view(trace: Trace, line_bytes: int, max_not_taken: int) -> TraceView:
    """The (possibly cached) :class:`TraceView` for one trace/config pair."""
    per_trace = _VIEW_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _VIEW_CACHE[trace] = per_trace
    key = (line_bytes, max_not_taken)
    view = per_trace.get(key)
    if view is None:
        view = TraceView(trace, line_bytes, max_not_taken)
        per_trace[key] = view
    return view


def release_views(keep: Optional[Trace] = None) -> None:
    """Drop the cached views of every trace but ``keep``.

    For callers that know they are done with the other traces: without
    this, views live as long as their traces stay in the experiment
    layer's trace LRU.
    """
    for trace in list(_VIEW_CACHE.keys()):
        if trace is not keep:
            del _VIEW_CACHE[trace]


class FastPath:
    """Drives one :class:`Simulator` through its whole trace, fast."""

    def __init__(self, sim: Simulator) -> None:
        if sim.telemetry is not None:
            raise ValueError("fast mode is counters-only: detach telemetry")
        self.sim = sim
        self.view = trace_view(
            sim.trace, sim._line_bytes,
            sim.config.branch.max_not_taken_branches_per_pw)

    def run(self) -> None:
        """Simulate the whole trace, mutating the simulator state exactly as
        draining :meth:`Simulator.steps` would (minus telemetry, which fast
        mode forbids)."""
        sim = self.sim
        view = self.view
        cfg = sim.config
        oc = sim.uop_cache
        accumulator = sim.accumulator
        backend = sim.backend
        bpu = sim.bpu
        loop_cache = sim.loop_cache
        hierarchy = sim.hierarchy
        decoder_power = sim.decoder_power

        decode_bw = cfg.decoder.bandwidth_insts_per_cycle
        decode_latency = cfg.decoder.latency_cycles
        oc_latency = cfg.uop_cache.fetch_latency_cycles
        records = sim.trace.records
        max_insts = cfg.max_instructions or len(records)
        limit = min(len(records), max_insts)
        limit_m1 = limit - 1
        loop_enabled = cfg.loop_cache.enabled
        strict = sim.strict
        warmup = cfg.warmup_instructions

        # Prebound per-record arrays.
        pcs = view.pcs
        next_pcs = view.next_pcs
        mem_addrs = view.mem_addrs
        takens = view.takens
        uops_arr = view.uops
        nuops = view.nuops
        lats_arr = view.latencies
        insts = view.insts
        is_branch = view.is_branch
        spans_line = view.spans_line
        span_tails = view.span_tail_pcs

        # Prebound methods.
        oc_lookup = oc.lookup
        oc_fill = oc.fill
        admit_inst = backend.admit_inst
        observe_branch = bpu.observe
        acc_flush = accumulator.flush
        acc_push = accumulator.push
        acc_begin = accumulator.begin
        fetch_line = hierarchy.fetch_instruction_line
        record_burst = decoder_power.record_decode_burst
        observe_fetch = sim._observe_fetch_action
        observe_taken = loop_cache.observe_taken_branch

        # Back-end queue state read directly for backpressure (mirrors
        # OutOfOrderBackend.queue_backpressure_cycle without the property
        # dispatch).
        dispatch_ring = backend._dispatch_ring
        queue_entries = backend.config.uop_queue_entries

        # Hot counters hoisted into locals; synced back via _sync at every
        # point that can observe simulator state mid-run.
        instructions_done = sim._instructions_done
        uops_from_oc = sim._uops_from_oc
        uops_from_ic = sim._uops_from_ic
        seq_run_uops = sim._seq_run_uops
        mispredicts = sim._mispredicts
        mispredict_latency_sum = sim._mispredict_latency_sum
        fe_cycles_oc = sim.fe_cycles_oc
        fe_cycles_ic = sim.fe_cycles_ic
        fe_cycles_redirect = sim.fe_cycles_redirect
        fe_cycles_backpressure = sim.fe_cycles_backpressure
        pw_in_flight = sim._pw_in_flight
        pw_entry_count = sim._pw_entry_count
        entries_per_pw_record = sim._entries_per_pw.record

        need_warmup = bool(warmup) and sim._warmup_snapshot is None

        def _sync() -> None:
            sim._instructions_done = instructions_done
            sim._uops_from_oc = uops_from_oc
            sim._uops_from_ic = uops_from_ic
            sim._seq_run_uops = seq_run_uops
            sim._mispredicts = mispredicts
            sim._mispredict_latency_sum = mispredict_latency_sum
            sim.fe_cycles_oc = fe_cycles_oc
            sim.fe_cycles_ic = fe_cycles_ic
            sim.fe_cycles_redirect = fe_cycles_redirect
            sim.fe_cycles_backpressure = fe_cycles_backpressure
            sim._pw_in_flight = pw_in_flight
            sim._pw_entry_count = pw_entry_count

        fe_cycle = 0
        cursor = 0
        pw_firsts = view.pw_firsts
        pw_lasts = view.pw_lasts
        pw_ids = view.pw_ids
        wi = 0
        pw_last = pw_lasts[0] if pw_lasts else -1

        while cursor < limit:
            if need_warmup and instructions_done >= warmup:
                _sync()
                sim._take_warmup_snapshot()
                need_warmup = False
            while pw_last < cursor:
                wi += 1
                pw_last = pw_lasts[wi]
            pw_first = pw_firsts[wi]
            pw_id = pw_ids[wi]

            if len(dispatch_ring) == queue_entries:
                backpressure = dispatch_ring[0]
                if backpressure > fe_cycle:
                    fe_cycles_backpressure += backpressure - fe_cycle
                    fe_cycle = backpressure
            pw_fetch_cycle = fe_cycle
            if pw_first != pw_in_flight:
                if pw_in_flight is not None and pw_entry_count:
                    entries_per_pw_record(pw_entry_count)
                pw_in_flight = pw_first
                pw_entry_count = 0
            pc = pcs[cursor]

            if loop_enabled and loop_cache.active and \
                    pc == loop_cache.active_target:
                # Rare once locked loops break; reuse the slow-path method
                # verbatim (it is already lean) with counters synced around
                # the call.
                _sync()
                cursor, fe_cycle, redirect = sim._serve_from_loop_cache(
                    cursor, limit, fe_cycle, pw_fetch_cycle)
                instructions_done = sim._instructions_done
                seq_run_uops = sim._seq_run_uops
                mispredicts = sim._mispredicts
                mispredict_latency_sum = sim._mispredict_latency_sum
                if redirect > fe_cycle:
                    fe_cycles_redirect += redirect - fe_cycle
                    fe_cycle = redirect
                if strict:
                    _sync()
                    observe_fetch(fe_cycle)
                continue

            entry = oc_lookup(pc)
            if entry is not None:
                # ------------------------------------------- uop cache path
                for sealed in acc_flush():
                    oc_fill(sealed)
                arrival = fe_cycle + oc_latency
                redirect = 0
                start = entry.start_pc
                end = entry.end_pc
                while cursor < limit:
                    pc = pcs[cursor]
                    if pc < start or pc >= end:
                        break
                    idx = cursor
                    n = nuops[idx]
                    uops_from_oc += n
                    seq_run_uops += n
                    complete = admit_inst(lats_arr[idx], arrival,
                                          mem_addrs[idx])
                    instructions_done += 1
                    cursor += 1
                    taken = takens[idx]
                    if is_branch[idx]:
                        outcome = observe_branch(insts[idx], taken,
                                                 next_pcs[idx])
                        if outcome == 2:
                            mispredicts += 1
                            delta = complete - pw_fetch_cycle
                            if delta > 0:
                                mispredict_latency_sum += delta
                            redirect = complete + MISPREDICT_REDIRECT_PENALTY
                            seq_run_uops = 0
                            break
                        if outcome == 1:
                            redirect = fe_cycle + 1 + DECODE_RESTEER_PENALTY
                            if taken:
                                if loop_enabled:
                                    observe_taken(
                                        pc, next_pcs[idx],
                                        body_uops=seq_run_uops)
                                seq_run_uops = 0
                            break
                    if taken:
                        if loop_enabled:
                            observe_taken(
                                pc, next_pcs[idx], body_uops=seq_run_uops)
                        seq_run_uops = 0
                        break
                fe_cycles_oc += 1
                fe_cycle += 1
                pw_entry_count += 1
            else:
                # --------------------------------------------- decoder path
                last = pw_last if pw_last < limit_m1 else limit_m1
                acc_begin(pw_id)
                fetch_latency = fetch_line(pcs[cursor])
                base = fe_cycle + fetch_latency + decode_latency
                slot = 0
                redirect = 0
                decoded = 0
                while cursor <= last:
                    idx = cursor
                    pc = pcs[idx]
                    if spans_line[idx]:
                        fetch_line(span_tails[idx])
                    arrival = base + slot // decode_bw
                    complete = admit_inst(lats_arr[idx], arrival,
                                          mem_addrs[idx])
                    n = nuops[idx]
                    uops_from_ic += n
                    seq_run_uops += n
                    instructions_done += 1
                    decoded += 1
                    slot += 1
                    cursor += 1
                    taken = takens[idx]
                    for sealed in acc_push(uops_arr[idx], taken):
                        oc_fill(sealed)
                        pw_entry_count += 1
                    if is_branch[idx]:
                        outcome = observe_branch(insts[idx], taken,
                                                 next_pcs[idx])
                        if outcome == 2:
                            mispredicts += 1
                            delta = complete - pw_fetch_cycle
                            if delta > 0:
                                mispredict_latency_sum += delta
                            redirect = complete + MISPREDICT_REDIRECT_PENALTY
                            seq_run_uops = 0
                            break
                        if outcome == 1:
                            redirect = (fe_cycle + fetch_latency +
                                        slot // decode_bw +
                                        DECODE_RESTEER_PENALTY)
                            if taken:
                                if loop_enabled:
                                    observe_taken(
                                        pc, next_pcs[idx],
                                        body_uops=seq_run_uops)
                                seq_run_uops = 0
                            break
                    if taken:
                        if loop_enabled:
                            observe_taken(
                                pc, next_pcs[idx], body_uops=seq_run_uops)
                        seq_run_uops = 0
                decode_cycles = (decoded + decode_bw - 1) // decode_bw
                record_burst(decoded, decode_cycles)
                advance = fetch_latency + decode_latency + decode_cycles
                fe_cycles_ic += advance
                fe_cycle += advance

            if redirect > fe_cycle:
                fe_cycles_redirect += redirect - fe_cycle
                fe_cycle = redirect
            if strict:
                _sync()
                observe_fetch(fe_cycle)

        _sync()
