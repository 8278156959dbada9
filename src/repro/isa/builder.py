"""Random-but-realistic x86 instruction synthesis.

The workload generator needs streams of instructions whose *byte lengths*,
*uop counts* and *imm/disp densities* look like compiled x86-64 code, because
those three properties drive uop-cache entry construction (and hence the
fragmentation the paper studies).  The distributions below follow published
measurements of x86-64 binaries (average instruction length a bit under 4
bytes, dominated by 2-5 byte ALU/move forms, a long tail up to 15 bytes for
vector/immediate-heavy forms).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..common.errors import WorkloadError
from .instruction import BranchKind, InstClass, X86Instruction

T = TypeVar("T")

# Per-class (length distribution, uop count distribution, imm/disp probability).
# Length distributions are (value, weight) pairs.
_LENGTHS: Dict[InstClass, Sequence[Tuple[int, float]]] = {
    InstClass.ALU: ((2, 0.25), (3, 0.35), (4, 0.2), (5, 0.12), (6, 0.05), (7, 0.03)),
    InstClass.NOP: ((1, 0.6), (2, 0.2), (3, 0.2)),
    InstClass.LOAD: ((3, 0.3), (4, 0.3), (5, 0.2), (6, 0.1), (7, 0.1)),
    InstClass.STORE: ((3, 0.3), (4, 0.3), (5, 0.2), (6, 0.1), (7, 0.1)),
    InstClass.LOAD_ALU: ((3, 0.25), (4, 0.3), (5, 0.25), (6, 0.1), (7, 0.1)),
    InstClass.FP: ((4, 0.4), (5, 0.3), (6, 0.2), (8, 0.1)),
    InstClass.AVX: ((4, 0.2), (5, 0.3), (6, 0.3), (8, 0.1), (10, 0.05), (15, 0.05)),
    InstClass.BRANCH: ((2, 0.6), (5, 0.3), (6, 0.1)),
    InstClass.CALL: ((5, 0.9), (6, 0.1)),
    InstClass.RET: ((1, 1.0),),
    InstClass.MICROCODED: ((3, 0.5), (4, 0.3), (7, 0.2)),
}

_UOP_COUNTS: Dict[InstClass, Sequence[Tuple[int, float]]] = {
    InstClass.ALU: ((1, 0.95), (2, 0.05)),
    InstClass.NOP: ((1, 1.0),),
    InstClass.LOAD: ((1, 1.0),),
    InstClass.STORE: ((1, 0.8), (2, 0.2)),
    InstClass.LOAD_ALU: ((2, 1.0),),
    InstClass.FP: ((1, 0.9), (2, 0.1)),
    InstClass.AVX: ((1, 0.6), (2, 0.4)),
    InstClass.BRANCH: ((1, 1.0),),
    InstClass.CALL: ((2, 1.0),),
    InstClass.RET: ((2, 1.0),),
    InstClass.MICROCODED: ((4, 0.4), (5, 0.3), (6, 0.2), (8, 0.1)),
}

_IMM_PROB: Dict[InstClass, float] = {
    InstClass.ALU: 0.35,
    InstClass.NOP: 0.0,
    InstClass.LOAD: 0.55,
    InstClass.STORE: 0.55,
    InstClass.LOAD_ALU: 0.55,
    InstClass.FP: 0.2,
    InstClass.AVX: 0.25,
    InstClass.BRANCH: 0.0,   # branch displacement handled by target field
    InstClass.CALL: 0.0,
    InstClass.RET: 0.0,
    InstClass.MICROCODED: 0.3,
}


@dataclass(frozen=True)
class InstructionMix:
    """Relative frequency of non-branch instruction classes in a workload.

    Branches are injected by the CFG generator, not the mix, so this only
    weights straight-line instruction classes.
    """

    alu: float = 0.42
    nop: float = 0.02
    load: float = 0.18
    store: float = 0.10
    load_alu: float = 0.12
    fp: float = 0.06
    avx: float = 0.06
    microcoded: float = 0.04

    def weights(self) -> List[Tuple[InstClass, float]]:
        pairs = [
            (InstClass.ALU, self.alu),
            (InstClass.NOP, self.nop),
            (InstClass.LOAD, self.load),
            (InstClass.STORE, self.store),
            (InstClass.LOAD_ALU, self.load_alu),
            (InstClass.FP, self.fp),
            (InstClass.AVX, self.avx),
            (InstClass.MICROCODED, self.microcoded),
        ]
        total = sum(weight for _, weight in pairs)
        if total <= 0:
            raise WorkloadError("instruction mix weights must sum to > 0")
        return [(cls, weight / total) for cls, weight in pairs]


INTEGER_MIX = InstructionMix()
FP_HEAVY_MIX = InstructionMix(alu=0.30, fp=0.16, avx=0.14, load=0.18,
                              store=0.08, load_alu=0.10, nop=0.01, microcoded=0.03)
SERVER_MIX = InstructionMix(alu=0.40, load=0.20, store=0.12, load_alu=0.14,
                            fp=0.02, avx=0.02, nop=0.03, microcoded=0.07)


def _weighted_draw(rng: random.Random,
                   dist: Sequence[Tuple[T, float]]) -> Callable[[], T]:
    """A zero-argument draw from ``(value, weight)`` pairs, equal to
    ``rng.choices(values, weights=weights, k=1)[0]``.

    ``random.choices`` rebuilds the cumulative weights on every call, then
    returns ``values[bisect_right(cum, rng.random() * total, 0, n - 1)]``.
    This builds the cumulative weights once and keeps that expression, so
    every draw returns the same value and leaves ``rng`` in the same state
    (tests/test_isa_builder.py checks both).  Passing the prepared weights
    as ``rng.choices(values, cum_weights=cum)`` would be exact too, but its
    per-call argument handling makes each draw about 7x slower than this
    closure (1.3 vs 0.2 us, CPython 3.11 on a 2-vCPU VM): the 13 Table II
    images then build 1.7x faster than with per-call ``choices``, not
    2.5x.
    """
    values = [value for value, _ in dist]
    cum = list(accumulate(weight for _, weight in dist))
    total = cum[-1] + 0.0
    if not (total > 0.0 and isfinite(total)):
        raise WorkloadError("weights must sum to a positive finite total")
    hi = len(cum) - 1
    random_ = rng.random

    def draw() -> T:
        return values[bisect_right(cum, random_() * total, 0, hi)]
    return draw


#: What building one instruction of a class needs, looked up once: the
#: class, its length and uop-count draws, its imm/disp probability, and
#: its is_microcoded/reads_memory/writes_memory flags.
_ClassSpec = Tuple[InstClass, Callable[[], int], Callable[[], int], float,
                   bool, bool, bool]


def _class_spec(rng: random.Random, inst_class: InstClass) -> _ClassSpec:
    return (inst_class,
            _weighted_draw(rng, _LENGTHS[inst_class]),
            _weighted_draw(rng, _UOP_COUNTS[inst_class]),
            _IMM_PROB[inst_class],
            inst_class is InstClass.MICROCODED,
            inst_class in (InstClass.LOAD, InstClass.LOAD_ALU, InstClass.RET),
            inst_class in (InstClass.STORE, InstClass.CALL))


class InstructionBuilder:
    """Synthesizes static instructions at increasing addresses.

    One builder is used per program image; it owns no global state beyond the
    RNG handed to it, so identical seeds reproduce identical code bytes.
    """

    def __init__(self, rng: random.Random, mix: InstructionMix = INTEGER_MIX) -> None:
        self._rng = rng
        self._random = rng.random
        self._specs = {inst_class: _class_spec(rng, inst_class)
                       for inst_class in _LENGTHS}
        # Straight-line classes are drawn straight to their specs.
        self._draw_straightline = _weighted_draw(
            rng, [(self._specs[cls], weight) for cls, weight in mix.weights()])

    def straightline(self, address: int) -> X86Instruction:
        """One non-branch instruction starting at ``address``."""
        return self._build(address, self._draw_straightline(), None,
                           BranchKind.NONE)

    def of_class(self, address: int, inst_class: InstClass,
                 branch_target: Optional[int] = None,
                 branch_kind: BranchKind = BranchKind.NONE) -> X86Instruction:
        return self._build(address, self._specs[inst_class], branch_target,
                           branch_kind)

    def _build(self, address: int, spec: _ClassSpec,
               branch_target: Optional[int],
               branch_kind: BranchKind) -> X86Instruction:
        # The draw order (length, uop count, imm/disp, microcode imm count)
        # is part of every generated image, and so is the positional
        # constructor call matching X86Instruction's field order; the
        # pinned images (tests/test_program_images.py) catch a change to
        # either.
        (inst_class, draw_length, draw_uop_count, imm_prob, microcoded,
         reads_memory, writes_memory) = spec
        length = draw_length()
        uop_count = draw_uop_count()
        imm_count = 1 if self._random() < imm_prob else 0
        if microcoded and imm_count:
            imm_count = self._rng.choice((1, 2))
        return X86Instruction(address, length, inst_class, uop_count,
                              imm_count, branch_kind, branch_target,
                              microcoded, reads_memory, writes_memory)

    def conditional_branch(self, address: int, target: int) -> X86Instruction:
        return self.of_class(address, InstClass.BRANCH,
                             branch_target=target,
                             branch_kind=BranchKind.CONDITIONAL)

    def unconditional_jump(self, address: int, target: int) -> X86Instruction:
        return self.of_class(address, InstClass.BRANCH,
                             branch_target=target,
                             branch_kind=BranchKind.UNCONDITIONAL)

    def call(self, address: int, target: int) -> X86Instruction:
        return self.of_class(address, InstClass.CALL,
                             branch_target=target, branch_kind=BranchKind.CALL)

    def indirect_call(self, address: int) -> X86Instruction:
        return self.of_class(address, InstClass.CALL,
                             branch_kind=BranchKind.INDIRECT_CALL)

    def ret(self, address: int) -> X86Instruction:
        return self.of_class(address, InstClass.RET, branch_kind=BranchKind.RET)

    def indirect_jump(self, address: int) -> X86Instruction:
        inst = self.of_class(address, InstClass.BRANCH,
                             branch_kind=BranchKind.INDIRECT)
        return inst
