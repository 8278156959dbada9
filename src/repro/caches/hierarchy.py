"""Three-level cache hierarchy with instruction- and data-side access paths.

The hierarchy answers latency questions only ("how many cycles until these
bytes are available?"), which is all the timing model needs.  L2 is unified;
L3 is shared (we simulate one core, so sharing only affects capacity).  The
L1-I employs a branch-prediction-directed next-line prefetcher, as in
Table I: when fetch touches line ``L`` on the predicted path, line ``L+1`` is
prefetched, hiding the sequential-miss latency the paper's baseline assumes.
"""

from __future__ import annotations

from typing import Optional

from ..common.config import MemoryHierarchyConfig
from ..common.statistics import StatGroup
from .replacement import TrueLru
from .setassoc import SetAssociativeCache


class MemoryHierarchy:
    """L1-I / L1-D / unified L2 / L3 / DRAM latency model."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        self.config = config or MemoryHierarchyConfig()
        cfg = self.config
        self.l1i = SetAssociativeCache(cfg.l1i)
        self.l1d = SetAssociativeCache(cfg.l1d)
        self.l2 = SetAssociativeCache(cfg.l2)
        self.l3 = SetAssociativeCache(cfg.l3)
        self.stats = StatGroup("hierarchy")
        self._i_prefetches = self.stats.counter("icache_prefetches")
        self._i_prefetch_hits = self.stats.counter("icache_prefetch_line_hits")
        # Recency lists for the inlined LRU-hit update (None when an L1 runs
        # a non-LRU policy; the access paths then call on_hit).
        self._l1i_lru = self.l1i._policy._order \
            if isinstance(self.l1i._policy, TrueLru) else None
        self._l1d_lru = self.l1d._policy._order \
            if isinstance(self.l1d._policy, TrueLru) else None

    # -- instruction side -----------------------------------------------------

    def fetch_instruction_line(self, address: int) -> int:
        """Access the I-side for the line containing ``address``; returns
        latency in cycles and fills all levels on the way down.

        The dominant L1-I-hit case is inlined (index/tag arithmetic,
        membership test, direct counter bumps); misses go through
        :meth:`_miss_latency`.  With ``icache_prefetch`` the next line is
        prefetched; its latency is off the critical path, so only the state
        change is modeled.
        """
        l1i = self.l1i
        line = address >> l1i._line_shift
        set_index = line & l1i._set_mask
        tag = line >> l1i._set_shift
        ways = l1i._tags[set_index]
        try:
            way = ways.index(tag)
        except ValueError:
            l1i._misses.value += 1
            latency = self._miss_latency(address, l1i)
        else:
            lru = self._l1i_lru
            if lru is not None:
                order = lru[set_index]
                order.remove(way)
                order.append(way)
            else:  # pragma: no cover - non-LRU L1-I configuration
                l1i._policy.on_hit(set_index, way)
            l1i._hits.value += 1
            latency = l1i.config.hit_latency_cycles
        if self.config.icache_prefetch:
            next_line = line + 1
            if (next_line >> l1i._set_shift) in \
                    l1i._tags[next_line & l1i._set_mask]:
                self._i_prefetch_hits.value += 1
            else:
                self._i_prefetches.value += 1
                self._fill_all(next_line << l1i._line_shift, l1i)
        return latency

    # -- data side ------------------------------------------------------------

    def access_data(self, address: int) -> int:
        """Load latency in cycles (the same :meth:`fetch_instruction_line`
        hit/miss structure on the L1-D).  A next-line stream prefetcher
        keeps the following line resident on every access (Table I: every
        data level employs prefetchers), so a forward-striding stream never
        exposes its compulsory misses; only its state change is modeled."""
        l1d = self.l1d
        line = address >> l1d._line_shift
        set_index = line & l1d._set_mask
        tag = line >> l1d._set_shift
        ways = l1d._tags[set_index]
        try:
            way = ways.index(tag)
        except ValueError:
            l1d._misses.value += 1
            latency = self._miss_latency(address, l1d)
        else:
            lru = self._l1d_lru
            if lru is not None:
                order = lru[set_index]
                order.remove(way)
                order.append(way)
            else:  # pragma: no cover - non-LRU L1-D configuration
                l1d._policy.on_hit(set_index, way)
            l1d._hits.value += 1
            latency = l1d.config.hit_latency_cycles
        next_line = line + 1
        if (next_line >> l1d._set_shift) not in \
                l1d._tags[next_line & l1d._set_mask]:
            self._fill_all(next_line << l1d._line_shift, l1d)
        return latency

    # Old names, kept only because perfbench/tracer.py wraps them by name
    # and warns when one is missing; ROADMAP item 2 drops them.
    fetch_instruction_line_fast = fetch_instruction_line
    access_data_fast = access_data

    # -- shared machinery -------------------------------------------------------

    def _miss_latency(self, address: int, l1: SetAssociativeCache) -> int:
        """Latency and fills below a missing L1 (L1 miss already counted)."""
        latency = l1.config.hit_latency_cycles
        if self.l2.lookup(address):
            latency += self.l2.config.hit_latency_cycles
            l1.fill(address)
            return latency
        latency += self.l2.config.hit_latency_cycles
        if self.l3.lookup(address):
            latency += self.l3.config.hit_latency_cycles
            self.l2.fill(address)
            l1.fill(address)
            return latency
        latency += self.l3.config.hit_latency_cycles + \
            self.config.dram_latency_cycles
        self._fill_all(address, l1)
        return latency

    def _fill_all(self, address: int, l1: SetAssociativeCache) -> None:
        self.l3.fill(address)
        self.l2.fill(address)
        l1.fill(address)

    def invalidate_instruction_line(self, address: int) -> None:
        """SMC-style I-side invalidation (L1-I only; L2/L3 are unified)."""
        self.l1i.invalidate(address)
