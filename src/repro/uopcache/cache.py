"""The micro-operation cache: lookup, fill, compaction, invalidation.

Structure (Table I): ``num_sets x associativity`` physical lines of 64 bytes,
true-LRU replacement maintained **per line** (shared by all entries compacted
into the line — Section V-B's fill-latency argument), indexed by the starting
physical address of the prediction window, byte-addressable tags (the full
start address is the tag, so entries starting at different bytes of the same
I-cache line coexist in one set).

Fill policies (Section V-B):

- ``NONE``  — baseline: every fill allocates a victim line (one entry/line).
- ``RAC``   — try to compact into the most-recently-used line of the set that
  has room; otherwise allocate.
- ``PWAC``  — first try a line already holding an entry of the same PW; then
  RAC; then allocate.
- ``F_PWAC`` — like PWAC, but when the same-PW buddy sits in a line without
  room because it was compacted with foreign entries, *force* the merge:
  evict the LRU line, move the foreign entries there, and compact the same-PW
  entries together (Fig. 14).

CLASP (Section V-A) affects this module only through invalidation: entries
may span two consecutive I-cache lines, so an invalidating probe for line
``L`` must also search the set of line ``L - line_bytes``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common.config import CompactionPolicy, UopCacheConfig
from ..common.errors import CacheError
from ..common.statistics import StatGroup
from ..caches.replacement import TrueLru
from ..telemetry.events import EventKind
from ..telemetry.hub import TelemetryHub
from .entry import EntryTermination, UopCacheEntry


class FillKind(enum.Enum):
    ALLOC = "alloc"          # placed alone in a (possibly evicted) line
    RAC = "rac"
    PWAC = "pwac"
    F_PWAC = "f-pwac"
    DUPLICATE = "duplicate"  # entry with this start address already resident


@dataclass
class FillResult:
    kind: FillKind
    evicted: List[UopCacheEntry] = field(default_factory=list)


class UopCacheLine:
    """One physical line: an ordered list of compacted entries."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[UopCacheEntry] = []

    @property
    def valid(self) -> bool:
        return bool(self.entries)

    def used_bytes(self, config: UopCacheConfig) -> int:
        return sum(entry.size_bytes(config) for entry in self.entries)

    def free_bytes(self, config: UopCacheConfig) -> int:
        return config.usable_line_bytes - self.used_bytes(config)


class UopCache:
    """The uop cache proper.  See module docstring for the model."""

    def __init__(self, config: Optional[UopCacheConfig] = None,
                 icache_line_bytes: int = 64,
                 telemetry: Optional[TelemetryHub] = None) -> None:
        self.config = config or UopCacheConfig()
        self.icache_line_bytes = icache_line_bytes
        #: Telemetry hub, or None (the zero-overhead disabled state).
        self._telemetry = telemetry
        cfg = self.config
        self._sets: List[List[UopCacheLine]] = [
            [UopCacheLine() for _ in range(cfg.associativity)]
            for _ in range(cfg.num_sets)]
        self._lru = TrueLru(cfg.num_sets, cfg.associativity)
        # Per-set lookup index: entry start pc -> way.
        self._index: List[Dict[int, int]] = [{} for _ in range(cfg.num_sets)]

        self.stats = StatGroup("uopcache")
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._fills = self.stats.counter("fills")
        self._duplicate_fills = self.stats.counter("duplicate_fills")
        self._compacted_fills = self.stats.counter("compacted_fills")
        self._evicted_entries = self.stats.counter("evicted_entries")
        self._invalidated_entries = self.stats.counter("invalidated_entries")
        self._uops_delivered = self.stats.counter("uops_delivered")
        self._fill_kind_counts: Dict[FillKind, int] = {k: 0 for k in FillKind}
        self._entry_size_hist = self.stats.histogram("entry_size_bytes")
        self._entry_uops_hist = self.stats.histogram("entry_uops")
        self._termination_counts: Dict[EntryTermination, int] = {
            reason: 0 for reason in EntryTermination}
        self._spanning_fills = self.stats.counter("entries_spanning_lines")

    def attach_telemetry(self, telemetry: Optional[TelemetryHub]) -> None:
        """Attach (or detach, with None) a telemetry hub after construction."""
        self._telemetry = telemetry

    # -- indexing ---------------------------------------------------------

    def set_index(self, pc: int) -> int:
        return (pc // self.icache_line_bytes) % self.config.num_sets

    # -- lookup ------------------------------------------------------------

    def lookup(self, pc: int) -> Optional[UopCacheEntry]:
        """Probe with a PW (or continuation) start address.

        Both serve loops probe once per fetch action, so the body is
        inlined: set-index arithmetic, direct counter bumps and the
        ``TrueLru.on_hit`` reorder (``self._lru`` is always a ``TrueLru``).
        Telemetry costs one ``is not None`` test when no hub is attached.
        """
        set_index = (pc // self.icache_line_bytes) % self.config.num_sets
        way = self._index[set_index].get(pc)
        if way is None:
            self._misses.value += 1
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.OC_MISS, pc=pc)
            return None
        for entry in self._sets[set_index][way].entries:
            if entry.start_pc == pc:
                order = self._lru._order[set_index]
                order.remove(way)
                order.append(way)
                uops = len(entry.uops)
                self._hits.value += 1
                self._uops_delivered.value += uops
                if self._telemetry is not None:
                    self._telemetry.emit(EventKind.OC_HIT, pc=pc, uops=uops)
                return entry
        raise CacheError(f"index desync at pc {pc:#x}")  # pragma: no cover

    # Old name, kept only because perfbench/tracer.py wraps it by name and
    # warns when it is missing; ROADMAP item 2 drops it.
    lookup_fast = lookup

    def probe(self, pc: int) -> bool:
        """Presence check without stats or replacement update."""
        return pc in self._index[self.set_index(pc)]

    # -- fill ----------------------------------------------------------------

    def fill(self, entry: UopCacheEntry) -> FillResult:
        cfg = self.config
        if entry.size_bytes(cfg) > cfg.usable_line_bytes:
            raise CacheError(
                f"entry at {entry.start_pc:#x} exceeds line capacity")
        if entry.end_pc <= entry.start_pc:
            raise CacheError(
                f"malformed entry: end {entry.end_pc:#x} <= "
                f"start {entry.start_pc:#x}")
        set_index = self.set_index(entry.start_pc)
        if entry.start_pc in self._index[set_index]:
            self._duplicate_fills.increment()
            self._fill_kind_counts[FillKind.DUPLICATE] += 1
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.OC_FILL, pc=entry.start_pc,
                                     fill_kind=FillKind.DUPLICATE.value)
            return FillResult(FillKind.DUPLICATE)

        self._record_fill_stats(entry)
        policy = cfg.compaction

        if policy is not CompactionPolicy.NONE:
            result = self._fill_compacting(set_index, entry, policy)
        else:
            result = self._fill_alloc(set_index, entry)
        self._fills.increment()
        self._fill_kind_counts[result.kind] += 1
        if result.kind in (FillKind.RAC, FillKind.PWAC, FillKind.F_PWAC):
            self._compacted_fills.increment()
        if self._telemetry is not None:
            self._telemetry.emit(
                EventKind.OC_FILL, pc=entry.start_pc,
                fill_kind=result.kind.value,
                termination=entry.termination.value, uops=entry.num_uops,
                bytes=entry.size_bytes(cfg),
                lines=len(entry.icache_lines(self.icache_line_bytes)))
        return result

    def _record_fill_stats(self, entry: UopCacheEntry) -> None:
        self._entry_size_hist.record(entry.size_bytes(self.config))
        self._entry_uops_hist.record(entry.num_uops)
        self._termination_counts[entry.termination] += 1
        if entry.spans_icache_lines(self.icache_line_bytes):
            self._spanning_fills.increment()

    def _fill_alloc(self, set_index: int, entry: UopCacheEntry) -> FillResult:
        lines = self._sets[set_index]
        valid = [line.valid for line in lines]
        way = self._lru.victim(set_index, valid)
        evicted = self._evict_line(set_index, way)
        lines[way].entries.append(entry)
        self._index[set_index][entry.start_pc] = way
        self._lru.on_fill(set_index, way)
        return FillResult(FillKind.ALLOC, evicted)

    def _fill_compacting(self, set_index: int, entry: UopCacheEntry,
                         policy: CompactionPolicy) -> FillResult:
        if policy in (CompactionPolicy.PWAC, CompactionPolicy.F_PWAC):
            way = self._find_same_pw_line(set_index, entry)
            if way is not None:
                if self._line_accepts(set_index, way, entry):
                    self._place(set_index, way, entry)
                    return FillResult(FillKind.PWAC)
                if policy is CompactionPolicy.F_PWAC:
                    forced = self._force_pw_merge(set_index, way, entry)
                    if forced is not None:
                        return forced
        way = self._find_rac_line(set_index, entry)
        if way is not None:
            self._place(set_index, way, entry)
            return FillResult(FillKind.RAC)
        return self._fill_alloc(set_index, entry)

    # -- compaction helpers --------------------------------------------------

    def _line_accepts(self, set_index: int, way: int,
                      entry: UopCacheEntry) -> bool:
        cfg = self.config
        line = self._sets[set_index][way]
        if not line.valid:
            return False
        if len(line.entries) >= cfg.max_entries_per_line:
            return False
        return line.free_bytes(cfg) >= entry.size_bytes(cfg)

    def _place(self, set_index: int, way: int, entry: UopCacheEntry) -> None:
        self._sets[set_index][way].entries.append(entry)
        self._index[set_index][entry.start_pc] = way
        self._lru.on_fill(set_index, way)

    def _find_same_pw_line(self, set_index: int,
                           entry: UopCacheEntry) -> Optional[int]:
        """The way holding an entry of the same PW, if any (MRU-most wins)."""
        for way in reversed(self._lru.recency_order(set_index)):
            line = self._sets[set_index][way]
            if any(resident.pw_id == entry.pw_id for resident in line.entries):
                return way
        return None

    def _find_rac_line(self, set_index: int,
                       entry: UopCacheEntry) -> Optional[int]:
        """Most-recently-used line with room (replacement-aware compaction)."""
        for way in reversed(self._lru.recency_order(set_index)):
            if self._line_accepts(set_index, way, entry):
                return way
        return None

    def _force_pw_merge(self, set_index: int, buddy_way: int,
                        entry: UopCacheEntry) -> Optional[FillResult]:
        """F-PWAC forced merge (Fig. 14).

        The buddy line holds same-PW entries plus foreign ones and lacks room.
        Evict the LRU line, move the foreign entries there, and compact the
        same-PW group with the new entry in the buddy line.  Returns None when
        the forced merge is impossible (the merged group would not fit, or
        there is no second way), leaving state untouched.
        """
        cfg = self.config
        line = self._sets[set_index][buddy_way]
        same_pw = [e for e in line.entries if e.pw_id == entry.pw_id]
        foreign = [e for e in line.entries if e.pw_id != entry.pw_id]
        if not foreign:
            return None  # nothing to displace; plain PWAC simply lacked space
        merged_bytes = sum(e.size_bytes(cfg) for e in same_pw) + \
            entry.size_bytes(cfg)
        if merged_bytes > cfg.usable_line_bytes or \
                len(same_pw) + 1 > cfg.max_entries_per_line:
            return None
        if cfg.associativity < 2:
            return None

        # Choose the LRU victim line, excluding the buddy line itself.
        order = self._lru.recency_order(set_index)
        victim_way = next(way for way in order if way != buddy_way)
        evicted = self._evict_line(set_index, victim_way)

        # Move foreign entries to the victim line (it is now empty).
        victim_line = self._sets[set_index][victim_way]
        for resident in foreign:
            victim_line.entries.append(resident)
            self._index[set_index][resident.start_pc] = victim_way
        # Buddy line keeps only the same-PW group plus the new entry.
        line.entries = list(same_pw)
        line.entries.append(entry)
        self._index[set_index][entry.start_pc] = buddy_way

        self._lru.on_fill(set_index, victim_way)
        self._lru.on_fill(set_index, buddy_way)
        if self._telemetry is not None:
            self._telemetry.emit(
                EventKind.OC_DISSOLVE, pc=entry.start_pc,
                moved=len(foreign),
                moved_uops=sum(resident.num_uops for resident in foreign))
        return FillResult(FillKind.F_PWAC, evicted)

    # -- eviction / invalidation -------------------------------------------------

    def _evict_line(self, set_index: int, way: int) -> List[UopCacheEntry]:
        line = self._sets[set_index][way]
        evicted = line.entries
        for entry in evicted:
            self._index[set_index].pop(entry.start_pc, None)
            if self._telemetry is not None:
                self._telemetry.emit(EventKind.OC_EVICT, pc=entry.start_pc,
                                     uops=entry.num_uops)
        self._evicted_entries.increment(len(evicted))
        line.entries = []
        return evicted

    def invalidate_icache_line(self, line_address: int) -> int:
        """SMC invalidating probe for one I-cache line (Section II-B4).

        Searches the line's own set and, when CLASP is enabled, the previous
        set (CLASP entries starting in line ``L-1`` may span into ``L``).
        Returns the number of entries invalidated.
        """
        line_bytes = self.icache_line_bytes
        line_address = (line_address // line_bytes) * line_bytes
        sets_to_probe = {self.set_index(line_address)}
        if self.config.clasp:
            for back in range(1, self.config.clasp_max_lines):
                sets_to_probe.add(
                    self.set_index(line_address - back * line_bytes))
        removed = 0
        sets = self._sets
        index = self._index
        for set_index in sorted(sets_to_probe):
            for way, line in enumerate(sets[set_index]):
                keep = []
                push = keep.append
                for entry in line.entries:
                    if entry.overlaps_line(line_address, line_bytes):
                        index[set_index].pop(entry.start_pc, None)
                        removed += 1
                    else:
                        push(entry)
                line.entries = keep
        self._invalidated_entries.increment(removed)
        if self._telemetry is not None:
            self._telemetry.emit(EventKind.OC_INVALIDATE, line=line_address,
                                 removed=removed)
        return removed

    def flush(self) -> None:
        sets = self._sets
        index = self._index
        for set_index in range(self.config.num_sets):
            for way in range(self.config.associativity):
                sets[set_index][way].entries = []
            index[set_index].clear()

    # -- observability ------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def fills(self) -> int:
        return self._fills.value

    @property
    def duplicate_fills(self) -> int:
        return self._duplicate_fills.value

    @property
    def evicted_entries(self) -> int:
        return self._evicted_entries.value

    @property
    def invalidated_entries(self) -> int:
        return self._invalidated_entries.value

    @property
    def uops_delivered(self) -> int:
        return self._uops_delivered.value

    @property
    def fill_kind_counts(self) -> Dict[FillKind, int]:
        return dict(self._fill_kind_counts)

    @property
    def termination_counts(self) -> Dict[EntryTermination, int]:
        return dict(self._termination_counts)

    @property
    def entry_size_histogram(self):
        return self._entry_size_hist

    @property
    def entry_uops_histogram(self):
        return self._entry_uops_hist

    @property
    def spanning_fill_fraction(self) -> float:
        return self._spanning_fills.value / self._fills.value \
            if self._fills.value else 0.0

    @property
    def compacted_fill_fraction(self) -> float:
        return self._compacted_fills.value / self._fills.value \
            if self._fills.value else 0.0

    def resident_tags(self) -> List[List[Tuple[int, int, int, int]]]:
        """Per-set sorted ``(start_pc, end_pc, pw_id, num_uops)`` tuples.

        The structural-state view the differential oracle compares against
        its reference model; deliberately excludes way placement and recency
        (those are implementation detail the reference models differently).
        """
        out: List[List[Tuple[int, int, int, int]]] = []
        for ways in self._sets:
            tags = sorted((entry.start_pc, entry.end_pc, entry.pw_id,
                           entry.num_uops)
                          for line in ways for entry in line.entries)
            out.append(tags)
        return out

    def resident_entries(self) -> int:
        return sum(len(line.entries)
                   for ways in self._sets for line in ways)

    def resident_uops(self) -> int:
        return sum(entry.num_uops
                   for ways in self._sets for line in ways
                   for entry in line.entries)

    def compacted_line_fraction(self) -> float:
        """Fraction of *valid* lines currently holding >= 2 entries."""
        valid = compacted = 0
        for ways in self._sets:
            for line in ways:
                if line.valid:
                    valid += 1
                    if len(line.entries) >= 2:
                        compacted += 1
        return compacted / valid if valid else 0.0

    def utilization(self) -> float:
        """Used bytes over total usable bytes across valid lines."""
        cfg = self.config
        usable = cfg.usable_line_bytes
        used = total = 0
        for ways in self._sets:
            for line in ways:
                if line.valid:
                    used += line.used_bytes(cfg)
                    total += usable
        return used / total if total else 0.0

    def check_invariants(self) -> None:
        """Validate internal consistency (used by property tests)."""
        cfg = self.config
        usable = cfg.usable_line_bytes
        max_entries = max(1, cfg.max_entries_per_line
                          if cfg.compaction is not CompactionPolicy.NONE
                          else 1)
        set_index_of = self.set_index
        for set_index, ways in enumerate(self._sets):
            seen: Dict[int, int] = {}
            for way, line in enumerate(ways):
                if line.used_bytes(cfg) > usable:
                    raise CacheError(
                        f"set {set_index} way {way} overflows its line")
                if len(line.entries) > max_entries:
                    raise CacheError(
                        f"set {set_index} way {way} holds too many entries")
                for entry in line.entries:
                    if set_index_of(entry.start_pc) != set_index:
                        raise CacheError(
                            f"entry {entry.start_pc:#x} in wrong set")
                    if entry.start_pc in seen:
                        raise CacheError(
                            f"duplicate tag {entry.start_pc:#x} in set")
                    seen[entry.start_pc] = way
            if seen != self._index[set_index]:
                raise CacheError(f"index desync in set {set_index}")
