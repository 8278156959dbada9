"""The accumulation buffer: builds uop cache entries from the decode stream.

On a uop cache miss the IC path decodes x86 instructions; their uops are
accumulated here until an entry terminating condition fires, at which point a
sealed :class:`UopCacheEntry` is handed to the uop cache fill logic
(Section II-B2/II-B3 of the paper).

Sequencing conditions enforced here:

- **I-cache line boundary** — in the baseline an entry only holds
  instructions whose first bytes share one I-cache line.  With CLASP an
  entry may extend across up to ``clasp_max_lines`` *consecutive* lines as
  long as flow is sequential (which it always is inside an accumulation run;
  taken branches end the run).
- **taken branch** — the caller reports each instruction's resolved
  taken/not-taken flag; a taken (or unconditional) transfer seals the entry.

Content conditions (max uops / imm-disp / micro-coded / physical fit) are
delegated to :class:`~repro.uopcache.entry.EntryBuilder`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import UopCacheConfig
from ..common.errors import CacheError
from ..isa.uop import Uop
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub
from .entry import (EntryBuilder, EntryTermination, Footprint,
                    UopCacheEntry, instruction_footprint)


class AccumulationBuffer:
    """Builds entries for one sequential decode run at a time."""

    def __init__(self, config: UopCacheConfig,
                 icache_line_bytes: int = 64,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.config = config
        self.icache_line_bytes = icache_line_bytes
        self._telemetry = telemetry
        #: The open entry, or None; an open entry is never empty.
        self._builder: Optional[EntryBuilder] = None
        self._first_line = 0        # I-cache line index of the entry's first inst
        self._pw_id = 0
        #: Footprint of each static instruction's uop tuple, by pc.  A hit
        #: must be the same tuple object (``Program.uops_at`` hands out one
        #: per static instruction); any other uops at that pc are derived
        #: afresh.
        self._footprints: Dict[int, Footprint] = {}
        #: Uops that bypassed the uop cache because a single instruction
        #: exceeded entry limits (served by the micro-code sequencer instead).
        self.bypassed_uops = 0

    @property
    def accumulating(self) -> bool:
        return self._builder is not None

    def begin(self, pw_id: int) -> None:
        """Set the PW identity for entries that start from now on."""
        self._pw_id = pw_id

    def push(self, inst_uops: Sequence[Uop],
             taken: bool) -> Tuple[UopCacheEntry, ...]:
        """Feed one decoded instruction; returns any entries sealed by it.

        ``taken`` is True when this dynamic instance diverted control flow
        (predicted-taken branch or unconditional transfer).  The instruction
        is checked once against the open entry and, if that entry seals or
        none is open, once against a fresh one.
        """
        if not inst_uops:
            raise CacheError("push requires at least one uop")
        pc = inst_uops[0].pc
        footprint = self._footprints.get(pc)
        if footprint is None or footprint[0] is not inst_uops:
            footprint = instruction_footprint(inst_uops, self.config)
            if isinstance(inst_uops, tuple):
                self._footprints[pc] = footprint
        line = pc // self.icache_line_bytes
        sealed: Tuple[UopCacheEntry, ...] = ()

        builder = self._builder
        if builder is not None:
            if pc != builder.end_pc:
                # Non-sequential continuation: control flow diverted while the
                # uop supply came from elsewhere (uop cache path / redirect).
                # The partial sequential run is still a valid entry: seal it.
                sealed = (self._seal(EntryTermination.PW_END),)
            elif self._line_boundary_violation(line):
                sealed = (self._seal(EntryTermination.ICACHE_LINE_BOUNDARY),)
            else:
                violation = builder.violation(footprint)
                if violation is None:
                    builder.append(footprint)
                    if taken:
                        return (self._seal(EntryTermination.TAKEN_BRANCH),)
                    return ()
                sealed = (self._seal(violation),)

        builder = EntryBuilder(self.config, start_pc=pc, pw_id=self._pw_id)
        if builder.violation(footprint) is not None:
            # A single instruction that exceeds entry limits even in a fresh
            # entry (a long micro-coded expansion) is not cached: real designs
            # serve such instructions from the micro-code sequencer.
            self.bypassed_uops += footprint[1]
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.OC_BYPASS, pc=pc,
                                     uops=footprint[1])
            return sealed

        builder.append(footprint)
        self._builder = builder
        self._first_line = line
        if taken:
            return sealed + (self._seal(EntryTermination.TAKEN_BRANCH),)
        return sealed

    def flush(self) -> List[UopCacheEntry]:
        """Seal any partial entry (end of accumulation run)."""
        if self._builder is None:
            return []
        return [self._seal(EntryTermination.PW_END)]

    def abandon(self) -> None:
        """Drop any partial entry (e.g. pipeline flush on misprediction)."""
        self._builder = None

    # -- internals ----------------------------------------------------------

    def _line_boundary_violation(self, line: int) -> bool:
        if line == self._first_line:
            return False
        if not self.config.clasp:
            return True
        span = line - self._first_line + 1
        return span > self.config.clasp_max_lines or line < self._first_line

    def _seal(self, termination: EntryTermination) -> UopCacheEntry:
        assert self._builder is not None
        entry = self._builder.seal(termination)
        self._builder = None
        return entry
