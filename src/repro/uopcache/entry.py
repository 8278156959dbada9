"""Uop cache entries and their construction/termination rules (Section II-B).

An *entry* is the unit of lookup and dispatch: a run of uops from whole,
consecutively fetched instructions, tagged by the starting physical address.
A *line* is the 64-byte physical container; in the baseline a line holds one
entry, with compaction it holds several.

Entry terminating conditions (baseline):

(a) I-cache line boundary crossing (relaxed by CLASP to ``clasp_max_lines``
    sequential lines),
(b) predicted taken branch,
(c) maximum uops per entry,
(d) maximum immediate/displacement fields per entry,
(e) maximum micro-coded instructions per entry,
(f) physical line fit (uop bytes + imm/disp bytes + metadata <= line size).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..common.config import UopCacheConfig
from ..common.errors import CacheError
from ..isa.uop import Uop, uops_storage_bytes

_entry_ids = itertools.count()


class EntryTermination(enum.Enum):
    ICACHE_LINE_BOUNDARY = "icache-line-boundary"
    TAKEN_BRANCH = "taken-branch"
    MAX_UOPS = "max-uops"
    MAX_IMM_DISP = "max-imm-disp"
    MAX_UCODE = "max-ucode"
    LINE_FULL = "line-full"
    PW_END = "pw-end"                # accumulation flushed at end of stream


@dataclass(eq=False)
class UopCacheEntry:
    """An immutable-after-seal group of uops plus its tag metadata.

    Identity semantics (``eq=False``): two structurally equal fills are still
    distinct entries, and entries can live in hash-based containers.

    Because an entry never changes after seal, its size (per config object)
    and its I-cache line span (per line size) are computed on first use and
    kept: a fill, its capacity checks and SMC probes all read them again.
    """

    start_pc: int
    pw_id: int
    uops: Tuple[Uop, ...] = ()
    end_pc: int = 0                       # first byte past the last instruction
    termination: EntryTermination = EntryTermination.PW_END
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    _size_config: Optional[UopCacheConfig] = field(
        default=None, init=False, repr=False)
    _size: int = field(default=0, init=False, repr=False)
    _lines_bytes: Optional[int] = field(default=None, init=False, repr=False)
    _lines: Tuple[int, ...] = field(default=(), init=False, repr=False)

    @property
    def num_uops(self) -> int:
        return len(self.uops)

    @property
    def num_imm_disp(self) -> int:
        return sum(1 for uop in self.uops if uop.has_imm_disp)

    @property
    def num_ucoded_insts(self) -> int:
        return len({uop.pc for uop in self.uops if uop.is_microcoded})

    @property
    def num_instructions(self) -> int:
        return len({uop.pc for uop in self.uops})

    def size_bytes(self, config: UopCacheConfig) -> int:
        """Storage footprint in the line: uop slots plus imm/disp slots."""
        if config is not self._size_config:
            self._size = uops_storage_bytes(self.uops, config.uop_bytes,
                                            config.imm_disp_bytes)
            self._size_config = config
        return self._size

    def icache_lines(self, line_bytes: int = 64) -> Tuple[int, ...]:
        """I-cache line addresses of the instruction *start* bytes covered."""
        if line_bytes != self._lines_bytes:
            self._lines = tuple(sorted({(uop.pc // line_bytes) * line_bytes
                                        for uop in self.uops}))
            self._lines_bytes = line_bytes
        return self._lines

    def spans_icache_lines(self, line_bytes: int = 64) -> bool:
        return len(self.icache_lines(line_bytes)) > 1

    def covers_address(self, address: int) -> bool:
        """Whether any covered instruction's start byte equals ``address``."""
        return any(uop.pc == address for uop in self.uops)

    def overlaps_line(self, line_address: int, line_bytes: int = 64) -> bool:
        """Whether any covered instruction starts in the given I-cache line."""
        line = (line_address // line_bytes) * line_bytes
        return line in self.icache_lines(line_bytes)


#: What one instruction adds to an entry, derived from its uops once:
#: ``(uops, num_uops, num_imm, ucoded_pc, ucoded_pcs, num_bytes, end_pc)``.
#: ``ucoded_pc`` is the pc the micro-code limit checks (the first uop's, if
#: it is micro-coded, else None); ``ucoded_pcs`` are the pcs of all its
#: micro-coded uops, which the entry records; ``end_pc`` is 0 for an
#: instruction with no uops, which no entry accepts.
Footprint = Tuple[Sequence[Uop], int, int, Optional[int], Tuple[int, ...],
                  int, int]


def instruction_footprint(inst_uops: Sequence[Uop],
                          config: UopCacheConfig) -> Footprint:
    """The :data:`Footprint` of one instruction's uops under ``config``."""
    num_imm = sum(1 for uop in inst_uops if uop.has_imm_disp)
    ucoded_pcs = tuple(uop.pc for uop in inst_uops if uop.is_microcoded)
    ucoded_pc: Optional[int] = None
    end_pc = 0
    if inst_uops:
        first = inst_uops[0]
        if first.is_microcoded:
            ucoded_pc = first.pc
        end_pc = first.next_sequential_pc
    num_bytes = len(inst_uops) * config.uop_bytes + \
        num_imm * config.imm_disp_bytes
    return (inst_uops, len(inst_uops), num_imm, ucoded_pc, ucoded_pcs,
            num_bytes, end_pc)


class EntryBuilder:
    """Incrementally accumulates one entry; enforces all limits.

    The accumulation-buffer logic (:mod:`repro.uopcache.builder`) drives this:
    :meth:`violation` answers whether a whole instruction's uops fit under
    rules (c)-(f), and :meth:`append` adds one it accepted; rules (a)/(b)
    are sequencing rules the caller enforces because they depend on control
    flow, not entry contents.  :meth:`instruction_fits` and
    :meth:`add_instruction` are the same two steps taking uops directly,
    with the add checked.
    """

    def __init__(self, config: UopCacheConfig, start_pc: int, pw_id: int) -> None:
        self.config = config
        self.start_pc = start_pc
        self.pw_id = pw_id
        self._uops: List[Uop] = []
        self._num_imm = 0
        self._ucoded_pcs: Set[int] = set()
        self._bytes = 0
        self._end_pc = start_pc

    @property
    def empty(self) -> bool:
        return not self._uops

    @property
    def num_uops(self) -> int:
        return len(self._uops)

    @property
    def end_pc(self) -> int:
        return self._end_pc

    def violation(self, footprint: Footprint) -> Optional[EntryTermination]:
        """None if an instruction of this footprint fits whole; else the
        first limit it breaks, in the order max-uops, max-imm-disp,
        max-ucode, line-full."""
        _, num_uops, num_imm, ucoded_pc, _, num_bytes, _ = footprint
        cfg = self.config
        if len(self._uops) + num_uops > cfg.max_uops_per_entry:
            return EntryTermination.MAX_UOPS
        if self._num_imm + num_imm > cfg.max_imm_disp_per_entry:
            return EntryTermination.MAX_IMM_DISP
        if ucoded_pc is not None:
            ucoded = self._ucoded_pcs
            if len(ucoded) + (ucoded_pc not in ucoded) > \
                    cfg.max_ucoded_per_entry:
                return EntryTermination.MAX_UCODE
        if self._bytes + num_bytes > cfg.usable_line_bytes:
            return EntryTermination.LINE_FULL
        return None

    def append(self, footprint: Footprint) -> None:
        """Add an instruction :meth:`violation` accepted, unchecked."""
        inst_uops, _, num_imm, _, ucoded_pcs, num_bytes, end_pc = footprint
        self._uops.extend(inst_uops)
        self._num_imm += num_imm
        if ucoded_pcs:
            self._ucoded_pcs.update(ucoded_pcs)
        self._bytes += num_bytes
        self._end_pc = end_pc

    def instruction_fits(self, inst_uops: Sequence[Uop]) -> Optional[EntryTermination]:
        """None if the whole instruction fits; else the limit it violates."""
        return self.violation(instruction_footprint(inst_uops, self.config))

    def add_instruction(self, inst_uops: Sequence[Uop]) -> None:
        footprint = instruction_footprint(inst_uops, self.config)
        violation = self.violation(footprint)
        if violation is not None:
            raise CacheError(f"instruction does not fit entry: {violation}")
        if not inst_uops:
            raise CacheError("cannot add an instruction with no uops")
        self.append(footprint)

    def seal(self, termination: EntryTermination) -> UopCacheEntry:
        if self.empty:
            raise CacheError("cannot seal an empty uop cache entry")
        return UopCacheEntry(
            start_pc=self.start_pc,
            pw_id=self.pw_id,
            uops=tuple(self._uops),
            end_pc=self._end_pc,
            termination=termination,
        )
