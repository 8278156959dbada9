"""Out-of-order back-end timing model.

The paper's observations are front-end effects, so the back-end only has to
(1) create realistic back-pressure (ROB / uop-queue occupancy, dispatch and
retire width limits), and (2) time branch *resolution*, which sets the
misprediction redirect point.  We model this with a program-order forward
pass: for every uop the model computes

- ``enqueue``  — when the uop can enter the uop queue (front-end arrival,
  delayed if the 120-entry queue is full);
- ``dispatch`` — bounded by dispatch width (6/cycle), ROB space (256), and
  program order;
- ``complete`` — dispatch + execution latency (+ data-cache latency for
  loads, from the shared memory hierarchy);
- ``retire``   — in order, bounded by retire width (8/cycle).

This avoids a per-cycle event loop (too slow in Python for multi-hundred-
thousand-instruction traces) while preserving exactly the quantities the
paper measures: uops-per-cycle, dispatch bandwidth, and the fetch-to-resolve
distance of mispredicted branches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..caches.hierarchy import MemoryHierarchy
from ..common.config import CoreConfig
from ..isa.uop import _EXEC_LATENCY, Uop, UopKind

#: Static latency applied to a LOAD whose record carries no data address
#: (mirrors ``admit()`` falling back to ``uop.exec_latency``).
_LOAD_STATIC_LATENCY = _EXEC_LATENCY[UopKind.LOAD]


@dataclass(frozen=True)
class UopTiming:
    """Cycle timestamps of one uop's flow through the back-end."""

    enqueue: int
    dispatch: int
    complete: int
    retire: int


class _WidthLimiter:
    """Tracks per-cycle slot usage for a width-limited in-order stage."""

    __slots__ = ("width", "cycle", "used", "busy_cycles")

    def __init__(self, width: int) -> None:
        self.width = width
        self.cycle = -1
        self.used = 0
        self.busy_cycles = 0

    def place(self, earliest: int) -> int:
        """Assign the next in-order slot at or after ``earliest``."""
        if earliest > self.cycle:
            self.cycle = earliest
            self.used = 1
            self.busy_cycles += 1
            return self.cycle
        # earliest <= current cycle: stage is busy at self.cycle
        if self.used < self.width:
            self.used += 1
            return self.cycle
        self.cycle += 1
        self.used = 1
        self.busy_cycles += 1
        return self.cycle


class OutOfOrderBackend:
    """Forward-pass OoO timing model with ROB/queue occupancy windows."""

    def __init__(self, config: Optional[CoreConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None) -> None:
        self.config = config or CoreConfig()
        self.hierarchy = hierarchy
        cfg = self.config
        self._dispatch = _WidthLimiter(cfg.dispatch_width)
        self._retire = _WidthLimiter(cfg.retire_width)
        # Ring buffers of past timestamps for occupancy constraints.
        self._dispatch_ring: Deque[int] = deque(maxlen=cfg.uop_queue_entries)
        self._retire_ring: Deque[int] = deque(maxlen=cfg.rob_entries)
        # Sticky "ring at capacity" flags: the rings only ever grow, so once
        # full they stay full and admit_inst() can skip the len() probes.
        self._queue_full = False
        self._rob_full = False
        self._last_retire = 0
        self.uops_retired = 0
        self.last_cycle = 0

    def admit(self, uop: Uop, arrival: int,
              mem_addr: Optional[int] = None) -> UopTiming:
        """Admit the next program-order uop arriving from the front-end at
        ``arrival``; returns its computed timing."""
        cfg = self.config

        # Uop queue back-pressure: entry (i - queue_size) must have dispatched.
        enqueue = arrival
        if len(self._dispatch_ring) == cfg.uop_queue_entries:
            enqueue = max(enqueue, self._dispatch_ring[0])

        # ROB occupancy: entry (i - rob_size) must have retired.
        earliest_dispatch = enqueue + 1      # one cycle in the queue minimum
        if len(self._retire_ring) == cfg.rob_entries:
            earliest_dispatch = max(earliest_dispatch, self._retire_ring[0])

        dispatch = self._dispatch.place(earliest_dispatch)
        self._dispatch_ring.append(dispatch)

        latency = uop.exec_latency
        if uop.kind is UopKind.LOAD and mem_addr is not None and \
                self.hierarchy is not None:
            latency = self.hierarchy.access_data(mem_addr)
        complete = dispatch + latency

        retire = self._retire.place(max(complete + 1, self._last_retire))
        self._last_retire = retire
        self._retire_ring.append(retire)

        self.uops_retired += 1
        self.last_cycle = max(self.last_cycle, retire)
        return UopTiming(enqueue=enqueue, dispatch=dispatch,
                         complete=complete, retire=retire)

    def admit_inst(self, latencies: "tuple[int, ...]", arrival: int,
                   mem_addr: Optional[int] = None) -> int:
        """Admit one instruction's uops arriving together at ``arrival``.

        Bit-identical to calling :meth:`admit` once per uop, minus the
        per-uop :class:`UopTiming` allocations (the fast serve loop only
        needs the branch-resolution point).  ``latencies`` holds each uop's
        static execution latency with loads encoded as ``-1``; loads resolve
        through the data hierarchy under exactly the conditions admit()
        uses.  Returns the completion cycle of the instruction's last uop
        (``arrival`` when ``latencies`` is empty, matching the serve loops'
        ``timing is None`` fallback).
        """
        cfg = self.config
        queue_entries = cfg.uop_queue_entries
        rob_entries = cfg.rob_entries
        dispatch_ring = self._dispatch_ring
        retire_ring = self._retire_ring
        hierarchy = self.hierarchy
        last_retire = self._last_retire
        complete = arrival
        # Width-limiter state inlined for the duration of the call (nothing
        # else touches the limiters between uops; _WidthLimiter.place is the
        # single hottest call in the normal path).
        dlim = self._dispatch
        d_width = dlim.width
        d_cycle = dlim.cycle
        d_used = dlim.used
        d_busy = dlim.busy_cycles
        rlim = self._retire
        r_width = rlim.width
        r_cycle = rlim.cycle
        r_used = rlim.used
        r_busy = rlim.busy_cycles
        d_full = self._queue_full or len(dispatch_ring) == queue_entries
        r_full = self._rob_full or len(retire_ring) == rob_entries
        for latency in latencies:
            enqueue = arrival
            if d_full and dispatch_ring[0] > enqueue:
                enqueue = dispatch_ring[0]
            earliest_dispatch = enqueue + 1
            if r_full and retire_ring[0] > earliest_dispatch:
                earliest_dispatch = retire_ring[0]
            if earliest_dispatch > d_cycle:
                d_cycle = earliest_dispatch
                d_used = 1
                d_busy += 1
            elif d_used < d_width:
                d_used += 1
            else:
                d_cycle += 1
                d_used = 1
                d_busy += 1
            dispatch_ring.append(d_cycle)
            if not d_full:
                d_full = len(dispatch_ring) == queue_entries
            if latency < 0:
                latency = hierarchy.access_data(mem_addr) \
                    if mem_addr is not None and hierarchy is not None \
                    else _LOAD_STATIC_LATENCY
            complete = d_cycle + latency
            earliest_retire = complete + 1
            if last_retire > earliest_retire:
                earliest_retire = last_retire
            if earliest_retire > r_cycle:
                r_cycle = earliest_retire
                r_used = 1
                r_busy += 1
                last_retire = r_cycle
            elif r_used < r_width:
                r_used += 1
                last_retire = r_cycle
            else:
                r_cycle += 1
                r_used = 1
                r_busy += 1
                last_retire = r_cycle
            retire_ring.append(last_retire)
            if not r_full:
                r_full = len(retire_ring) == rob_entries
        self._queue_full = d_full
        self._rob_full = r_full
        dlim.cycle = d_cycle
        dlim.used = d_used
        dlim.busy_cycles = d_busy
        rlim.cycle = r_cycle
        rlim.used = r_used
        rlim.busy_cycles = r_busy
        self._last_retire = last_retire
        self.uops_retired += len(latencies)
        if last_retire > self.last_cycle:
            self.last_cycle = last_retire
        return complete

    @property
    def busy_dispatch_cycles(self) -> int:
        """Number of distinct cycles in which at least one uop dispatched."""
        return self._dispatch.busy_cycles

    @property
    def queue_backpressure_cycle(self) -> int:
        """Earliest cycle the front-end may deliver the next uop (queue space)."""
        if len(self._dispatch_ring) == self.config.uop_queue_entries:
            return self._dispatch_ring[0]
        return 0
