"""Generic set-associative cache (tags only — the simulator models timing,
not data values).

Used for the L1-I, L1-D, L2 and L3 levels.  The uop cache has its own
structure (:mod:`repro.uopcache`) because its lines hold variable-size entries
with their own metadata.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import CacheLevelConfig
from .replacement import TrueLru, make_policy


class SetAssociativeCache:
    """A tag array with pluggable replacement and simple invalidate support.

    Every access computes its set index and tag inline and finds ways with
    ``in`` and ``list.index``.  An LRU level keeps its recency lists in
    :attr:`_lru` and updates them in place; the other policies are called
    through their methods.  A fill takes the first invalid way under every
    policy, because each policy's ``victim`` returns exactly that way when
    one exists, so ``victim`` only runs on a full set.
    """

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.associativity
        self.line_bytes = config.line_bytes
        self._line_shift = self.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._set_shift = self.num_sets.bit_length() - 1
        self._tags: List[List[Optional[int]]] = [
            [None] * self.num_ways for _ in range(self.num_sets)]
        self._policy = make_policy(config.replacement,
                                   self.num_sets, self.num_ways)
        #: Per-set recency lists (LRU way first) of an LRU level, else None.
        self._lru: Optional[List[List[int]]] = self._policy._order \
            if isinstance(self._policy, TrueLru) else None
        self._all_valid = (True,) * self.num_ways
        self.hits = 0
        self.misses = 0

    def lookup(self, address: int, update_replacement: bool = True) -> bool:
        """True on hit.  Does not fill on miss (caller decides)."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        tag = line >> self._set_shift
        ways = self._tags[set_index]
        if tag not in ways:
            self.misses += 1
            return False
        if update_replacement:
            way = ways.index(tag)
            lru = self._lru
            if lru is None:
                self._policy.on_hit(set_index, way)
            else:
                order = lru[set_index]
                order.remove(way)
                order.append(way)
        self.hits += 1
        return True

    def contains(self, address: int) -> bool:
        line = address >> self._line_shift
        return (line >> self._set_shift) in self._tags[line & self._set_mask]

    def fill(self, address: int) -> Optional[int]:
        """Insert the line; returns the evicted line address, if any."""
        line = address >> self._line_shift
        set_index = line & self._set_mask
        tag = line >> self._set_shift
        ways = self._tags[set_index]
        lru = self._lru
        if tag in ways:                      # already present: refresh only
            way = ways.index(tag)
            if lru is None:
                self._policy.on_hit(set_index, way)
            else:
                order = lru[set_index]
                order.remove(way)
                order.append(way)
            return None
        if None in ways:
            way = ways.index(None)
        elif lru is None:
            way = self._policy.victim(set_index, self._all_valid)
        else:
            way = lru[set_index][0]
        evicted_tag = ways[way]
        ways[way] = tag
        if lru is None:
            self._policy.on_fill(set_index, way)
        else:
            order = lru[set_index]
            order.remove(way)
            order.append(way)
        if evicted_tag is None:
            return None
        evicted_line = (evicted_tag << self._set_shift) | set_index
        return evicted_line << self._line_shift

    def invalidate(self, address: int) -> bool:
        line = address >> self._line_shift
        ways = self._tags[line & self._set_mask]
        tag = line >> self._set_shift
        if tag not in ways:
            return False
        ways[ways.index(tag)] = None
        return True

    def flush(self) -> None:
        for ways in self._tags:
            for way in range(self.num_ways):
                ways[way] = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def resident_lines(self) -> int:
        return sum(1 for ways in self._tags for t in ways if t is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SetAssociativeCache {self.config.name} "
                f"{self.num_sets}x{self.num_ways} lines={self.resident_lines()}>")
