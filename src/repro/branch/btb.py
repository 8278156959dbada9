"""Branch Target Buffer (2-level, 2 branches per entry) and return stack.

The BTB answers "is there a branch in/near this PC, and where does it go?".
We model the paper's Table I structure: entries each track up to two branches
from the same aligned region, organised as a small fast first level backed by
a larger second level.  A hit in L2 (but not L1) costs a one-cycle fetch
bubble; a miss on a taken branch forces a decode-time resteer.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..common.config import BranchPredictorConfig
from ..isa.instruction import BranchKind


class BtbOutcome(enum.Enum):
    L1_HIT = "l1-hit"
    L2_HIT = "l2-hit"
    MISS = "miss"


@dataclass
class BtbRecord:
    target: int
    kind: BranchKind


class _BtbLevel:
    """One LRU level; each entry holds up to ``branches_per_entry`` branches."""

    def __init__(self, entries: int, branches_per_entry: int,
                 region_bytes: int = 16) -> None:
        self.capacity = entries
        self.branches_per_entry = branches_per_entry
        self.region_bytes = region_bytes
        # region address -> {pc: BtbRecord}, ordered for LRU.
        self._entries: "OrderedDict[int, Dict[int, BtbRecord]]" = OrderedDict()

    def _region(self, pc: int) -> int:
        return pc // self.region_bytes

    def lookup(self, pc: int) -> Optional[BtbRecord]:
        region = self._region(pc)
        slot = self._entries.get(region)
        if slot is None:
            return None
        record = slot.get(pc)
        if record is not None:
            self._entries.move_to_end(region)
        return record

    def install(self, pc: int, record: BtbRecord) -> None:
        region = self._region(pc)
        slot = self._entries.get(region)
        if slot is None:
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
            slot = {}
            self._entries[region] = slot
        elif pc not in slot and len(slot) >= self.branches_per_entry:
            # Evict the other branch sharing the region entry.
            slot.pop(next(iter(slot)))
        slot[pc] = record
        self._entries.move_to_end(region)

    def __contains__(self, pc: int) -> bool:
        slot = self._entries.get(self._region(pc))
        return slot is not None and pc in slot


class BranchTargetBuffer:
    """Two-level BTB with per-level hit attribution."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        cfg = config or BranchPredictorConfig()
        l1_entries = max(1, cfg.btb_entries // 8)
        self.l1 = _BtbLevel(l1_entries, cfg.btb_branches_per_entry)
        self.l2 = _BtbLevel(cfg.btb_entries, cfg.btb_branches_per_entry)

    def lookup(self, pc: int) -> Tuple[BtbOutcome, Optional[BtbRecord]]:
        record = self.l1.lookup(pc)
        if record is not None:
            return BtbOutcome.L1_HIT, record
        record = self.l2.lookup(pc)
        if record is not None:
            self.l1.install(pc, record)   # promote on L2 hit
            return BtbOutcome.L2_HIT, record
        return BtbOutcome.MISS, None

    def install(self, pc: int, target: int, kind: BranchKind) -> None:
        record = BtbRecord(target=target, kind=kind)
        self.l1.install(pc, record)
        self.l2.install(pc, record)

    def update_target(self, pc: int, target: int, kind: BranchKind) -> None:
        """Refresh a (possibly changed) indirect target."""
        self.install(pc, target, kind)


class ReturnAddressStack:
    """A bounded return-address stack; overflow wraps (oldest entry lost)."""

    def __init__(self, entries: int = 32) -> None:
        self.capacity = entries
        self._stack = []

    def push(self, return_address: int) -> None:
        if len(self._stack) >= self.capacity:
            self._stack.pop(0)
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        if not self._stack:
            return None
        return self._stack.pop()

    @property
    def depth(self) -> int:
        return len(self._stack)
