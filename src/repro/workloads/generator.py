"""Synthetic workload generation: CFG construction and trace walking.

The generator builds a static program image (functions made of basic blocks
with realistic x86 instruction shapes) and then *walks* it to produce a
dynamic trace.  Branch behaviour is attached per static branch at build time:

- **loop branches** run a fixed trip count (taken ``trip-1`` times, then fall
  through, then reset) — highly predictable, like compiled loops;
- **biased branches** are Bernoulli with probability near 0 or 1 — mostly
  predictable;
- **hard branches** are Bernoulli with mid-range probability — these set the
  achievable branch MPKI of the workload, as in real data-dependent code;
- **indirect branches** choose among several targets (switch dispatch).

The dynamic walker additionally models a top-level driver loop: when the call
stack empties, it "calls" the next function chosen from a Zipf distribution
whose hot set rotates every ``phase_length`` instructions, producing the
phased instruction-footprint behaviour that stresses uop-cache capacity.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import WorkloadError
from ..common.hashing import derive_stream_seed
from ..isa.builder import INTEGER_MIX, InstructionBuilder, InstructionMix
from ..isa.instruction import BranchKind, X86Instruction
from .program import BasicBlock, Function, Program
from .trace import DynamicInst, Trace


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything that defines a synthetic workload (one per Table II row)."""

    name: str
    num_functions: int = 64
    blocks_per_function: Tuple[int, int] = (4, 12)
    insts_per_block: Tuple[int, int] = (3, 12)
    mix: InstructionMix = INTEGER_MIX
    # Terminator kind fractions among non-final blocks (remainder: fallthrough
    # or forward-conditional, split evenly).
    loop_fraction: float = 0.18
    call_fraction: float = 0.10
    uncond_fraction: float = 0.08
    indirect_fraction: float = 0.02
    #: Fraction of call sites that are indirect (virtual dispatch): the callee
    #: is chosen dynamically among several functions, which is what spreads a
    #: workload's dynamic code footprint.
    indirect_call_fraction: float = 0.35
    indirect_call_targets: Tuple[int, int] = (2, 6)
    # Conditional branch predictability.
    hard_branch_fraction: float = 0.10
    easy_taken_bias: float = 0.5       # P(an easy branch is mostly-taken)
    loop_trip_counts: Tuple[int, ...] = (2, 3, 4, 8, 16, 50)
    # Dynamic behaviour.
    hot_function_zipf: float = 1.2
    #: Probability that the top-level driver picks a uniformly random function
    #: instead of a Zipf-hot one (tail exploration; widens the footprint).
    driver_uniform_fraction: float = 0.2
    phase_length: int = 0              # 0 = no phase rotation
    max_call_depth: int = 56
    #: Mean consecutive executions an indirect branch sticks to one target
    #: (virtual-dispatch monomorphism; 1 = fully random per execution).
    indirect_stickiness: int = 24
    code_base: int = 0x40_0000
    function_alignment: int = 16
    # Data-side behaviour.
    data_working_set_bytes: int = 1 << 20
    far_access_fraction: float = 0.004

    def __post_init__(self) -> None:
        if self.num_functions < 1:
            raise WorkloadError("need at least one function")
        lo, hi = self.blocks_per_function
        if not 1 <= lo <= hi:
            raise WorkloadError("invalid blocks_per_function range")
        lo, hi = self.insts_per_block
        # lo = 0 would let a block end in a fallthrough with no
        # instructions at all, which generation rejects much later.
        if not 1 <= lo <= hi:
            raise WorkloadError(
                f"invalid insts_per_block range ({lo}, {hi}): "
                "need 1 <= lo <= hi")
        for name in ("loop_fraction", "call_fraction", "uncond_fraction",
                     "indirect_fraction", "indirect_call_fraction",
                     "hard_branch_fraction", "easy_taken_bias",
                     "driver_uniform_fraction", "far_access_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be in [0,1], got {value!r}")
        fractions = (self.loop_fraction + self.call_fraction +
                     self.uncond_fraction + self.indirect_fraction)
        if fractions > 1.0 + 1e-9:
            raise WorkloadError("terminator fractions exceed 1.0")
        lo, hi = self.indirect_call_targets
        if not 1 <= lo <= hi:
            raise WorkloadError(
                f"invalid indirect_call_targets range ({lo}, {hi}): "
                "need 1 <= lo <= hi")
        if self.phase_length < 0:
            raise WorkloadError(
                f"phase_length must be >= 0 (0 disables phases), "
                f"got {self.phase_length}")
        if not self.loop_trip_counts or \
                any(trip < 1 for trip in self.loop_trip_counts):
            raise WorkloadError(
                "loop_trip_counts needs at least one trip count >= 1")
        if self.indirect_stickiness < 1:
            raise WorkloadError("indirect_stickiness must be >= 1")
        if self.max_call_depth < 1:
            raise WorkloadError("max_call_depth must be >= 1")
        if self.hot_function_zipf < 0.0:
            raise WorkloadError("hot_function_zipf must be >= 0")
        if self.function_alignment < 1:
            raise WorkloadError("function_alignment must be >= 1")
        if self.data_working_set_bytes < 8:
            raise WorkloadError("data_working_set_bytes must be >= 8")


# --------------------------------------------------------------------------
# Branch behaviours (attached to static branch PCs, consumed by the walker).
# --------------------------------------------------------------------------

@dataclass
class LoopBehavior:
    trip_count: int


@dataclass
class BiasedBehavior:
    taken_probability: float


@dataclass
class IndirectBehavior:
    targets: Tuple[int, ...]
    weights: Tuple[float, ...]


Behavior = object  # union of the three above; kept duck-typed for speed


@dataclass
class Workload:
    """A generated program image plus its branch behaviours and profile."""

    profile: WorkloadProfile
    program: Program
    behaviors: Dict[int, Behavior]

    def trace(self, num_instructions: int, seed: int = 7) -> Trace:
        return TraceWalker(self, seed).walk(num_instructions)


# --------------------------------------------------------------------------
# CFG / program construction.
# --------------------------------------------------------------------------

class _TerminatorKind:
    FALLTHROUGH = "fallthrough"
    FORWARD_COND = "forward-cond"
    LOOP_COND = "loop-cond"
    UNCOND = "uncond"
    CALL = "call"
    INDIRECT = "indirect"
    RET = "ret"


@dataclass
class _BlockDraft:
    instructions: List[X86Instruction]
    term_kind: str
    term_template: Optional[X86Instruction]   # sampled shape at a placeholder addr
    term_address: int
    loop_target_index: int = -1


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


class WorkloadGenerator:
    """Builds a :class:`Workload` from a profile, deterministically per seed."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        self.profile = profile
        # zlib.crc32 (not hash()) so workloads are identical across processes:
        # Python string hashing is salted per interpreter run.
        name_hash = zlib.crc32(profile.name.encode())
        self._rng = random.Random((seed << 16) ^ name_hash)
        self._builder = InstructionBuilder(self._rng, profile.mix)

    def generate(self) -> Workload:
        profile = self.profile
        cursor = profile.code_base
        drafts: List[List[_BlockDraft]] = []

        for _ in range(profile.num_functions):
            cursor = _align_up(cursor, profile.function_alignment)
            function_drafts, cursor = self._draft_function(cursor)
            drafts.append(function_drafts)

        behaviors: Dict[int, Behavior] = {}
        functions: List[Function] = []
        entries = [fd[0].instructions[0].address if fd[0].instructions
                   else fd[0].term_address
                   for fd in drafts]

        for index, function_drafts in enumerate(drafts):
            blocks = self._materialize_function(
                index, function_drafts, entries, behaviors)
            functions.append(Function(name=f"fn{index}", blocks=blocks))

        cursor = _align_up(cursor, profile.function_alignment)
        driver = self._build_driver(cursor, entries, behaviors)
        functions.append(driver)

        program = Program(functions, entry=driver.entry)
        return Workload(profile=profile, program=program, behaviors=behaviors)

    def _build_driver(self, cursor: int, entries: Sequence[int],
                      behaviors: Dict[int, Behavior]) -> Function:
        """Synthesize the top-level driver: an endless dispatch loop of sticky
        indirect calls whose target distribution mixes Zipf-hot functions with
        a uniform tail (``driver_uniform_fraction``).

        A real dispatcher keeps the call stack non-empty, so returns stay
        RAS-predictable — unlike a model that 'teleports' between functions.
        """
        profile, rng = self.profile, self._rng
        n = len(entries)
        ranking = list(range(n))
        rng.shuffle(ranking)
        zipf = [(rank + 1) ** -profile.hot_function_zipf
                for rank in range(n)]
        total = sum(zipf)
        u = profile.driver_uniform_fraction
        weights = [0.0] * n
        for rank, func_index in enumerate(ranking):
            weights[func_index] = (1.0 - u) * zipf[rank] / total + u / n
        targets = tuple(entries)

        driver_entry = cursor
        num_call_blocks = min(8, max(2, n // 32))
        blocks: List[BasicBlock] = []
        for block_index in range(num_call_blocks + 1):
            instructions: List[X86Instruction] = []
            for _ in range(2):
                inst = self._builder.straightline(cursor)
                instructions.append(inst)
                cursor = inst.end_address
            if block_index < num_call_blocks:
                call = self._builder.indirect_call(cursor)
                behaviors[cursor] = IndirectBehavior(
                    targets=targets, weights=tuple(weights))
                cursor = call.end_address
                instructions.append(call)
            else:
                jump = self._builder.unconditional_jump(cursor, driver_entry)
                cursor = jump.end_address
                instructions.append(jump)
            blocks.append(BasicBlock(instructions=instructions))
        return Function(name="driver", blocks=blocks)

    # -- pass 1: layout ----------------------------------------------------

    def _draft_function(self, cursor: int) -> Tuple[List[_BlockDraft], int]:
        profile, rng = self.profile, self._rng
        straightline = self._builder.straightline
        num_blocks = rng.randint(*profile.blocks_per_function)
        function_drafts: List[_BlockDraft] = []

        for block_index in range(num_blocks):
            num_insts = rng.randint(*profile.insts_per_block)
            instructions: List[X86Instruction] = []
            for _ in range(num_insts):
                inst = straightline(cursor)
                instructions.append(inst)
                cursor += inst.length

            term_kind = self._choose_terminator(block_index, num_blocks)
            template = self._terminator_template(term_kind, cursor)
            draft = _BlockDraft(
                instructions=instructions,
                term_kind=term_kind,
                term_template=template,
                term_address=cursor,
            )
            if term_kind == _TerminatorKind.LOOP_COND:
                draft.loop_target_index = max(
                    0, block_index - rng.randint(1, 3))
            if template is not None:
                cursor += template.length
            function_drafts.append(draft)

        return function_drafts, cursor

    def _choose_terminator(self, block_index: int, num_blocks: int) -> str:
        profile, rng = self.profile, self._rng
        if block_index == num_blocks - 1:
            return _TerminatorKind.RET
        roll = rng.random()
        if roll < profile.loop_fraction and block_index > 0:
            return _TerminatorKind.LOOP_COND
        roll -= profile.loop_fraction
        if roll < profile.call_fraction:
            return _TerminatorKind.CALL
        roll -= profile.call_fraction
        if roll < profile.uncond_fraction and block_index + 2 < num_blocks:
            return _TerminatorKind.UNCOND
        roll -= profile.uncond_fraction
        if roll < profile.indirect_fraction and block_index + 2 < num_blocks:
            return _TerminatorKind.INDIRECT
        # Remainder: half plain fallthrough, half forward conditional.
        if rng.random() < 0.45:
            return _TerminatorKind.FALLTHROUGH
        return _TerminatorKind.FORWARD_COND

    def _terminator_template(self, kind: str,
                             address: int) -> Optional[X86Instruction]:
        builder = self._builder
        if kind == _TerminatorKind.FALLTHROUGH:
            return None
        if kind in (_TerminatorKind.FORWARD_COND, _TerminatorKind.LOOP_COND):
            return builder.conditional_branch(address, address)  # target patched
        if kind == _TerminatorKind.UNCOND:
            return builder.unconditional_jump(address, address)
        if kind == _TerminatorKind.CALL:
            return builder.call(address, address)
        if kind == _TerminatorKind.INDIRECT:
            return builder.indirect_jump(address)
        if kind == _TerminatorKind.RET:
            return builder.ret(address)
        raise WorkloadError(f"unknown terminator kind {kind!r}")

    # -- pass 2: materialize terminators with real targets ------------------

    def _materialize_function(self, func_index: int,
                              function_drafts: List[_BlockDraft],
                              entries: List[int],
                              behaviors: Dict[int, Behavior]) -> List[BasicBlock]:
        profile, rng = self.profile, self._rng
        block_starts = [
            (fd.instructions[0].address if fd.instructions else fd.term_address)
            for fd in function_drafts]
        num_blocks = len(function_drafts)
        blocks: List[BasicBlock] = []

        for block_index, draft in enumerate(function_drafts):
            instructions = list(draft.instructions)
            template = draft.term_template
            if template is not None:
                terminator = self._patch_terminator(
                    func_index, block_index, num_blocks, draft, template,
                    block_starts, entries, behaviors)
                instructions.append(terminator)
            if not instructions:
                raise WorkloadError("generated an empty basic block")
            blocks.append(BasicBlock(instructions=instructions))
        return blocks

    def _patch_terminator(self, func_index: int, block_index: int,
                          num_blocks: int, draft: _BlockDraft,
                          template: X86Instruction,
                          block_starts: Sequence[int],
                          entries: List[int],
                          behaviors: Dict[int, Behavior]) -> X86Instruction:
        profile, rng = self.profile, self._rng
        kind = draft.term_kind
        pc = draft.term_address

        if kind == _TerminatorKind.RET:
            return template.placed(pc, None)

        if kind == _TerminatorKind.LOOP_COND:
            target = block_starts[draft.loop_target_index]
            behaviors[pc] = LoopBehavior(
                trip_count=rng.choice(profile.loop_trip_counts))
            return template.placed(pc, target)

        if kind == _TerminatorKind.FORWARD_COND:
            target_index = rng.randint(block_index + 1, num_blocks - 1)
            target = block_starts[target_index]
            if rng.random() < profile.hard_branch_fraction:
                behaviors[pc] = BiasedBehavior(rng.uniform(0.30, 0.70))
            else:
                mostly_taken = rng.random() < profile.easy_taken_bias
                p = rng.uniform(0.95, 0.995) if mostly_taken \
                    else rng.uniform(0.005, 0.05)
                behaviors[pc] = BiasedBehavior(p)
            return template.placed(pc, target)

        if kind == _TerminatorKind.UNCOND:
            target_index = rng.randint(block_index + 1, num_blocks - 1)
            return template.placed(pc, block_starts[target_index])

        if kind == _TerminatorKind.CALL:
            if len(entries) == 1:
                return template.placed(pc, entries[func_index])
            # Every other function's entry, in order.
            candidates = entries[:func_index] + entries[func_index + 1:]
            if rng.random() < profile.indirect_call_fraction and \
                    len(candidates) >= 2:
                lo, hi = profile.indirect_call_targets
                count = min(rng.randint(lo, hi), len(candidates))
                targets = tuple(rng.sample(candidates, count))
                raw = [rng.random() + 0.1 for _ in targets]
                total = sum(raw)
                behaviors[pc] = IndirectBehavior(
                    targets=targets, weights=tuple(w / total for w in raw))
                return template.placed(pc, None, BranchKind.INDIRECT_CALL)
            target = rng.choice(candidates)
            return template.placed(pc, target)

        if kind == _TerminatorKind.INDIRECT:
            lo = block_index + 1
            count = min(rng.randint(2, 4), num_blocks - lo)
            target_indices = rng.sample(range(lo, num_blocks), count)
            targets = tuple(block_starts[i] for i in target_indices)
            raw = [rng.random() + 0.1 for _ in targets]
            total = sum(raw)
            behaviors[pc] = IndirectBehavior(
                targets=targets, weights=tuple(w / total for w in raw))
            return template.placed(pc, None)

        raise WorkloadError(f"unknown terminator kind {kind!r}")


# --------------------------------------------------------------------------
# Dynamic trace walking.
# --------------------------------------------------------------------------

class TraceWalker:
    """Walks a workload's CFG, resolving branch behaviours into a trace.

    Subclassable: workload engines (see :mod:`repro.workloads.engine`)
    override :meth:`_pick_function_entry`, :meth:`_sticky_indirect_target`
    or :meth:`_memory_address` to impose phase schedules or adversarial
    behaviour on an existing program image.  ``self._index`` holds the
    number of records emitted so far and is updated before every
    resolution step, so overrides can key schedules off trace position.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        # SplitMix64 derivation (common.hashing): bijective in the seed and
        # salted by the workload name, so seed=0 does not collapse to RNG
        # seed 0 and co-run workloads never share a walk stream.
        self._rng = random.Random(
            derive_stream_seed(seed, workload.profile.name))
        profile = workload.profile
        ranks = range(1, profile.num_functions + 1)
        weights = [rank ** -profile.hot_function_zipf for rank in ranks]
        total = sum(weights)
        self._zipf_weights = [w / total for w in weights]
        self._loop_counters: Dict[int, int] = {}
        # Per-branch sticky indirect target: pc -> [target, remaining_uses].
        self._sticky_targets: Dict[int, List[int]] = {}
        self._stack_base = 0x7FFF_0000_0000
        self._heap_base = 0x10_0000_0000
        self._heap_counter = 0
        self._index = 0

    def walk(self, num_instructions: int) -> Trace:
        if num_instructions < 1:
            raise WorkloadError("trace length must be >= 1")
        workload = self.workload
        program = workload.program
        profile = workload.profile
        behaviors = workload.behaviors

        records: List[DynamicInst] = []
        call_stack: List[int] = []
        phase = 0
        pc = program.entry

        while len(records) < num_instructions:
            self._index = len(records)
            if profile.phase_length:
                phase = len(records) // profile.phase_length
            inst = program.at(pc)
            mem_addr = self._memory_address(inst, len(call_stack))
            next_pc = self._next_pc(inst, call_stack, phase, behaviors)
            records.append(DynamicInst(pc=pc, next_pc=next_pc, mem_addr=mem_addr))
            pc = next_pc

        return Trace(program, records, name=profile.name)

    def _pick_function_entry(self, phase: int) -> int:
        functions = self.workload.program.functions
        profile = self.workload.profile
        if self._rng.random() < profile.driver_uniform_fraction:
            index = self._rng.randrange(len(functions))
        else:
            index = self._rng.choices(
                range(len(functions)), weights=self._zipf_weights, k=1)[0]
        if profile.phase_length:
            index = (index + phase * 7) % len(functions)
        return functions[index].entry

    def _next_pc(self, inst: X86Instruction, call_stack: List[int],
                 phase: int, behaviors: Dict[int, Behavior]) -> int:
        rng = self._rng
        kind = inst.branch_kind

        if kind is BranchKind.NONE:
            return inst.end_address

        if kind is BranchKind.CONDITIONAL:
            behavior = behaviors.get(inst.address)
            if isinstance(behavior, LoopBehavior):
                count = self._loop_counters.get(inst.address, 0) + 1
                if count >= behavior.trip_count:
                    self._loop_counters[inst.address] = 0
                    return inst.end_address
                self._loop_counters[inst.address] = count
                return inst.branch_target  # type: ignore[return-value]
            if isinstance(behavior, BiasedBehavior):
                if rng.random() < behavior.taken_probability:
                    return inst.branch_target  # type: ignore[return-value]
                return inst.end_address
            # A conditional with no registered behaviour: treat as not-taken.
            return inst.end_address

        if kind is BranchKind.UNCONDITIONAL:
            return inst.branch_target  # type: ignore[return-value]

        if kind is BranchKind.CALL:
            if len(call_stack) < self.workload.profile.max_call_depth:
                call_stack.append(inst.end_address)
            return inst.branch_target  # type: ignore[return-value]

        if kind is BranchKind.INDIRECT_CALL:
            if len(call_stack) < self.workload.profile.max_call_depth:
                call_stack.append(inst.end_address)
            behavior = behaviors.get(inst.address)
            if isinstance(behavior, IndirectBehavior):
                return self._sticky_indirect_target(inst.address, behavior)
            return inst.end_address

        if kind is BranchKind.RET:
            if call_stack:
                return call_stack.pop()
            return self._pick_function_entry(phase)

        if kind is BranchKind.INDIRECT:
            behavior = behaviors.get(inst.address)
            if isinstance(behavior, IndirectBehavior):
                return self._sticky_indirect_target(inst.address, behavior)
            return inst.end_address

        raise WorkloadError(f"unhandled branch kind {kind}")

    def _sticky_indirect_target(self, pc: int,
                                behavior: IndirectBehavior) -> int:
        """Pick an indirect target with phase stickiness (monomorphic runs)."""
        sticky = self._sticky_targets.get(pc)
        if sticky is not None and sticky[1] > 0:
            sticky[1] -= 1
            return sticky[0]
        rng = self._rng
        target = rng.choices(behavior.targets, weights=behavior.weights, k=1)[0]
        mean = max(1, self.workload.profile.indirect_stickiness)
        # Geometric run length with the configured mean.
        remaining = 1
        while rng.random() < 1.0 - 1.0 / mean:
            remaining += 1
        self._sticky_targets[pc] = [target, remaining - 1]
        return target

    def _memory_address(self, inst: X86Instruction, depth: int) -> Optional[int]:
        if not (inst.reads_memory or inst.writes_memory):
            return None
        rng = self._rng
        profile = self.workload.profile
        roll = rng.random()
        far = profile.far_access_fraction
        if roll < 0.45:
            # Stack access near the current frame.
            return self._stack_base - depth * 256 + rng.randrange(0, 256, 8)
        if roll < 1.0 - far:
            # Streaming heap access within the working set (8-byte stride, so
            # consecutive accesses mostly reuse the same cache line and the
            # stream prefetcher covers line transitions).
            self._heap_counter += 1
            offset = (self._heap_counter * 8) % profile.data_working_set_bytes
            return self._heap_base + offset
        if roll < 1.0 - far / 20.0:
            # Far access into an L2/L3-resident region (pointer chasing).
            return self._heap_base + (1 << 31) + rng.randrange(0, 1 << 18, 64)
        # Cold access: misses all the way to DRAM (rare).
        return self._heap_base + (1 << 32) + rng.randrange(0, 1 << 28, 64)


#: Backwards-compatible alias (the walker predates the engine registry).
_TraceWalker = TraceWalker


def generate_workload(profile: WorkloadProfile, seed: int = 1) -> Workload:
    """Convenience wrapper: build the program image for ``profile``."""
    return WorkloadGenerator(profile, seed=seed).generate()
