"""Replacement policies for set-associative structures.

Policies manage per-set state for a fixed geometry and expose three hooks:
``on_hit``, ``on_fill`` and ``victim``.  ``victim`` must return an invalid way
if one exists (the caller passes the valid mask), otherwise the policy's
eviction choice.

Implemented: true LRU (Table I: L1/L2 and the uop cache), tree-PLRU (cheap
hardware approximation, used in sensitivity tests) and SRRIP (Table I: L3).
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from ..common.config import ReplacementKind
from ..common.errors import CacheError


class ReplacementPolicy(abc.ABC):
    """Per-set replacement state for a ``num_sets x num_ways`` structure."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets < 1 or num_ways < 1:
            raise CacheError("replacement policy needs >= 1 set and way")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abc.abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        ...

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        ...

    @abc.abstractmethod
    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        ...

    def _first_invalid(self, valid: Sequence[bool]) -> int:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return -1

    def _check(self, set_index: int, way: int) -> None:
        if not 0 <= set_index < self.num_sets:
            raise CacheError(f"set index {set_index} out of range")
        if not 0 <= way < self.num_ways:
            raise CacheError(f"way {way} out of range")


class TrueLru(ReplacementPolicy):
    """Exact LRU: per-set recency order, most recent last."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._order: List[List[int]] = [
            list(range(num_ways)) for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    on_fill = on_hit

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        self._check(set_index, 0)
        invalid = self._first_invalid(valid)
        if invalid >= 0:
            return invalid
        return self._order[set_index][0]

    def recency_order(self, set_index: int) -> List[int]:
        """A copy of the LRU -> MRU way order."""
        return list(self._order[set_index])

    def mru_way(self, set_index: int) -> int:
        return self._order[set_index][-1]


class TreePlru(ReplacementPolicy):
    """Tree pseudo-LRU over a power-of-two number of ways."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        if num_ways & (num_ways - 1):
            raise CacheError("tree-PLRU requires a power-of-two way count")
        self._bits: List[List[int]] = [
            [0] * max(1, num_ways - 1) for _ in range(num_sets)]

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        width = self.num_ways
        while width > 1:
            half = width // 2
            go_right = (way % width) >= half
            bits[node] = 0 if go_right else 1  # point away from touched way
            node = 2 * node + (2 if go_right else 1)
            width = half

    def on_hit(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        self._touch(set_index, way)

    on_fill = on_hit

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        self._check(set_index, 0)
        invalid = self._first_invalid(valid)
        if invalid >= 0:
            return invalid
        bits = self._bits[set_index]
        node = 0
        way = 0
        width = self.num_ways
        while width > 1:
            half = width // 2
            go_right = bits[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                way += half
            width = half
        return way


class Srrip(ReplacementPolicy):
    """Static RRIP with 2-bit re-reference prediction values."""

    MAX_RRPV = 3

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._rrpv: List[List[int]] = [
            [self.MAX_RRPV] * num_ways for _ in range(num_sets)]

    def on_hit(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        self._rrpv[set_index][way] = 0

    def on_fill(self, set_index: int, way: int) -> None:
        self._check(set_index, way)
        self._rrpv[set_index][way] = self.MAX_RRPV - 1  # "long" re-reference

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        self._check(set_index, 0)
        invalid = self._first_invalid(valid)
        if invalid >= 0:
            return invalid
        rrpv = self._rrpv[set_index]
        max_rrpv = self.MAX_RRPV
        while True:
            for way, value in enumerate(rrpv):
                if value == max_rrpv:
                    return way
            for way in range(self.num_ways):
                rrpv[way] += 1


def make_policy(kind: ReplacementKind, num_sets: int,
                num_ways: int) -> ReplacementPolicy:
    if kind is ReplacementKind.LRU:
        return TrueLru(num_sets, num_ways)
    if kind is ReplacementKind.TREE_PLRU:
        return TreePlru(num_sets, num_ways)
    if kind is ReplacementKind.RRIP:
        return Srrip(num_sets, num_ways)
    raise CacheError(f"unknown replacement kind {kind}")
