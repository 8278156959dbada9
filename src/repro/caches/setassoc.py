"""Generic set-associative cache (tags only — the simulator models timing,
not data values).

Used for the L1-I, L1-D, L2 and L3 levels.  The uop cache has its own
structure (:mod:`repro.uopcache`) because its lines hold variable-size entries
with their own metadata.
"""

from __future__ import annotations

from typing import List, Optional

from ..common.config import CacheLevelConfig
from .replacement import make_policy


class SetAssociativeCache:
    """A tag array with pluggable replacement and simple invalidate support."""

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
        self.hits = 0
        self.misses = 0

    def _index_tag(self, address: int) -> tuple:
        line = address >> self._line_shift
        return line & self._set_mask, line >> self._set_shift

    def lookup(self, address: int, update_replacement: bool = True) -> bool:
        """True on hit.  Does not fill on miss (caller decides)."""
        set_index, tag = self._index_tag(address)
        ways = self._tags[set_index]
        for way, existing in enumerate(ways):
            if existing == tag:
                if update_replacement:
                    self._policy.on_hit(set_index, way)
                self.hits += 1
                return True
        self.misses += 1
        return False

    def contains(self, address: int) -> bool:
        set_index, tag = self._index_tag(address)
        return tag in self._tags[set_index]

    def fill(self, address: int) -> Optional[int]:
        """Insert the line; returns the evicted line address, if any."""
        set_index, tag = self._index_tag(address)
        ways = self._tags[set_index]
        if tag in ways:                      # already present: refresh only
            self._policy.on_hit(set_index, ways.index(tag))
            return None
        valid = [existing is not None for existing in ways]
        way = self._policy.victim(set_index, valid)
        evicted_tag = ways[way]
        ways[way] = tag
        self._policy.on_fill(set_index, way)
        if evicted_tag is None:
            return None
        evicted_line = (evicted_tag << self._set_shift) | set_index
        return evicted_line << self._line_shift

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._index_tag(address)
        ways = self._tags[set_index]
        for way, existing in enumerate(ways):
            if existing == tag:
                ways[way] = None
                return True
        return False

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
