"""Component differentials for the write side (hypothesis).

Two structures the serve loops call on every decode and every cache miss
are checked, operation by operation, against a straightforward model:

- :class:`SetAssociativeCache` against :class:`ReferenceLevel` below, a tag
  array that finds ways with Python loops, sizes its sets with ``//`` and
  ``%`` and drives the replacement policy only through its public
  ``on_hit``, ``victim`` and ``on_fill`` calls.  Every return value, the
  tag arrays, the hit and miss counters and the policy's own state must be
  equal after each operation, under LRU, tree-PLRU and SRRIP.  It catches,
  for example, a fill that takes the LRU way while an invalidated way is
  free, or an in-place LRU update that appends without removing.
- :class:`AccumulationBuffer` against the oracle's
  :class:`~repro.oracle.reference.ReferenceAccumulator`, which re-derives
  every limit from the open entry's full uop list.  The streams reuse one
  uop tuple per static instruction, as ``Program.uops_at`` does, and
  sometimes push a freshly built tuple with another footprint at the same
  pc, as hand-written callers do.  Sealed entries and ``bypassed_uops``
  must be equal after each call.  It catches, for example, a per-pc
  footprint memo that skips its identity check, or a push that skips the
  fit check on a sequential continuation.
"""

from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caches.replacement import make_policy
from repro.caches.setassoc import SetAssociativeCache
from repro.common.config import CacheLevelConfig, ReplacementKind, UopCacheConfig
from repro.isa.uop import Uop, UopKind
from repro.oracle.reference import ReferenceAccumulator
from repro.uopcache.builder import AccumulationBuffer

DIFFERENTIAL = settings(max_examples=150, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Set-associative cache levels.
# --------------------------------------------------------------------------

class ReferenceLevel:
    """A tag array with linear way search and public policy calls only."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.num_ways = config.associativity
        self.tags: List[List[Optional[int]]] = [
            [None] * self.num_ways for _ in range(self.num_sets)]
        self.policy = make_policy(config.replacement, self.num_sets,
                                  self.num_ways)
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def lookup(self, address: int, update_replacement: bool = True) -> bool:
        set_index, tag = self._locate(address)
        for way, existing in enumerate(self.tags[set_index]):
            if existing == tag:
                if update_replacement:
                    self.policy.on_hit(set_index, way)
                self.hits += 1
                return True
        self.misses += 1
        return False

    def contains(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        return any(existing == tag for existing in self.tags[set_index])

    def fill(self, address: int) -> Optional[int]:
        set_index, tag = self._locate(address)
        ways = self.tags[set_index]
        for way, existing in enumerate(ways):
            if existing == tag:
                self.policy.on_hit(set_index, way)
                return None
        way = self.policy.victim(set_index,
                                 [existing is not None for existing in ways])
        evicted = ways[way]
        ways[way] = tag
        self.policy.on_fill(set_index, way)
        if evicted is None:
            return None
        return (evicted * self.num_sets + set_index) * self.line_bytes

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._locate(address)
        ways = self.tags[set_index]
        for way, existing in enumerate(ways):
            if existing == tag:
                ways[way] = None
                return True
        return False


def _policy_state(policy) -> object:
    for name in ("_order", "_bits", "_rrpv"):
        if hasattr(policy, name):
            return getattr(policy, name)
    raise AssertionError(f"unknown policy {policy!r}")


LEVEL_OPS = ("lookup", "peek", "fill", "contains", "invalidate")


@st.composite
def level_streams(draw):
    kind = draw(st.sampled_from(list(ReplacementKind)))
    num_sets = draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4]))
    line_bytes = draw(st.sampled_from([16, 64]))
    config = CacheLevelConfig(name="diff",
                              size_bytes=num_sets * ways * line_bytes,
                              associativity=ways, line_bytes=line_bytes,
                              replacement=kind)
    # Three times the capacity, so sets fill, evict and refill.
    span = 3 * num_sets * ways * line_bytes
    ops = draw(st.lists(st.tuples(st.sampled_from(LEVEL_OPS),
                                  st.integers(0, span - 1)),
                        min_size=1, max_size=120))
    return config, ops


@given(stream=level_streams())
@DIFFERENTIAL
def test_set_associative_cache_matches_reference(stream):
    config, ops = stream
    cache = SetAssociativeCache(config)
    ref = ReferenceLevel(config)
    for op, address in ops:
        if op == "lookup":
            got, want = cache.lookup(address), ref.lookup(address)
        elif op == "peek":
            got = cache.lookup(address, update_replacement=False)
            want = ref.lookup(address, update_replacement=False)
        else:
            got = getattr(cache, op)(address)
            want = getattr(ref, op)(address)
        assert got == want, (op, hex(address))
        assert cache._tags == ref.tags
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert _policy_state(cache._policy) == _policy_state(ref.policy)


# --------------------------------------------------------------------------
# The accumulation buffer.
# --------------------------------------------------------------------------

def _instruction(pc: int, length: int, imm_flags: List[bool],
                 micro_flags: List[bool]) -> Tuple[Uop, ...]:
    count = len(imm_flags)
    return tuple(Uop(pc=pc, inst_length=length, kind=UopKind.ALU, slot=slot,
                     num_slots=count, has_imm_disp=imm_flags[slot],
                     is_microcoded=micro_flags[slot])
                 for slot in range(count))


@st.composite
def instructions(draw, pc: int) -> Tuple[Uop, ...]:
    """One instruction at ``pc``: 1-10 uops (over 8 bypasses the cache),
    leading imm/disp uops, sometimes micro-coded.  Rarely its flags vary
    per uop, which only hand-built uops do."""
    count = draw(st.integers(1, 10))
    length = draw(st.integers(1, 9))
    if draw(st.integers(0, 9)) == 0:
        imm_flags = draw(st.lists(st.booleans(), min_size=count,
                                  max_size=count))
        micro_flags = draw(st.lists(st.booleans(), min_size=count,
                                    max_size=count))
    else:
        imm = draw(st.integers(0, count))
        imm_flags = [slot < imm for slot in range(count)]
        micro_flags = [draw(st.integers(0, 5)) == 0] * count
    return _instruction(pc, length, imm_flags, micro_flags)


@st.composite
def accumulation_streams(draw):
    config = UopCacheConfig(
        clasp=draw(st.booleans()),
        clasp_max_lines=draw(st.sampled_from([2, 3])),
        max_imm_disp_per_entry=draw(st.sampled_from([1, 4])),
        max_ucoded_per_entry=draw(st.sampled_from([0, 1, 4])))
    line_bytes = draw(st.sampled_from([16, 32, 64]))
    # A static program laid out sequentially: one uop tuple per
    # instruction, pushed by identity as Program.uops_at hands them out.
    program: List[Tuple[Uop, ...]] = []
    pc = 0x1000 + draw(st.integers(0, line_bytes - 1))
    for _ in range(draw(st.integers(1, 12))):
        inst = draw(instructions(pc))
        program.append(inst)
        pc = inst[0].next_sequential_pc
    size = len(program)
    ops = []
    cursor = 0
    for _ in range(draw(st.integers(1, 60))):
        choice = draw(st.integers(0, 9))
        if choice == 0:
            ops.append(("begin", draw(st.integers(0, 3)) * 0x40))
        elif choice == 1:
            ops.append(("flush", None))
        else:
            if choice == 2:          # non-sequential continuation
                cursor = draw(st.integers(0, size - 1))
            inst = program[cursor]
            if draw(st.integers(0, 5)) == 0:
                # Same pc, a different tuple and footprint.
                inst = draw(instructions(inst[0].pc))
            ops.append(("push", (inst, draw(st.booleans()))))
            cursor = (cursor + 1) % size
    return config, line_bytes, ops


def _sealed(entries) -> List[tuple]:
    return [(entry.start_pc, entry.end_pc, entry.pw_id, tuple(entry.uops),
             getattr(entry.termination, "value", entry.termination))
            for entry in entries]


@given(stream=accumulation_streams())
@DIFFERENTIAL
def test_accumulation_buffer_matches_reference(stream):
    config, line_bytes, ops = stream
    buf = AccumulationBuffer(config, icache_line_bytes=line_bytes)
    ref = ReferenceAccumulator(config, icache_line_bytes=line_bytes)
    for op, arg in ops:
        if op == "begin":
            buf.begin(arg)
            ref.begin(arg)
            continue
        if op == "flush":
            got, want = buf.flush(), ref.flush()
        else:
            inst, taken = arg
            got, want = buf.push(inst, taken), ref.push(inst, taken)
        assert _sealed(got) == _sealed(want), op
        assert buf.bypassed_uops == ref.bypassed_uops
    assert _sealed(buf.flush()) == _sealed(ref.flush())
