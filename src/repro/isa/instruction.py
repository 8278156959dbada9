"""Static x86-like instruction model.

The simulator does not interpret instruction semantics; it models exactly the
attributes that the front-end (fetcher, decoder, uop cache) observes:

- the byte address and variable length (1..15 bytes),
- how many uops the instruction decodes into and whether it is micro-coded,
- how many immediate/displacement fields its uops carry,
- its branch behaviour (kind and static target), if any,
- its data-memory behaviour (loads/stores), used by the back-end model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..common.errors import WorkloadError

MAX_X86_INST_LEN = 15


class InstClass(enum.Enum):
    """Coarse instruction class, enough to pick execution latency and uop shape."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    LOAD_ALU = "load-alu"       # load-op form, decodes to 2 uops
    FP = "fp"
    AVX = "avx"                 # 128/256/512-bit vector op
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"
    NOP = "nop"
    MICROCODED = "microcoded"   # string ops, CPUID-likes: many uops


class BranchKind(enum.Enum):
    NONE = "none"
    CONDITIONAL = "cond"
    UNCONDITIONAL = "jmp"
    CALL = "call"
    INDIRECT_CALL = "indirect-call"
    RET = "ret"
    INDIRECT = "indirect"


#: Branch kinds whose target is static (part of the instruction).
_DIRECT_KINDS = (BranchKind.CONDITIONAL, BranchKind.UNCONDITIONAL,
                 BranchKind.CALL)


@dataclass(frozen=True)
class X86Instruction:
    """One static instruction in a program image."""

    address: int
    length: int
    inst_class: InstClass
    uop_count: int
    imm_disp_count: int = 0
    branch_kind: BranchKind = BranchKind.NONE
    branch_target: Optional[int] = None   # static target (None for RET/indirect)
    is_microcoded: bool = False
    reads_memory: bool = False
    writes_memory: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.length <= MAX_X86_INST_LEN:
            raise WorkloadError(
                f"instruction at {self.address:#x} has invalid length {self.length}")
        if self.uop_count < 1:
            raise WorkloadError(
                f"instruction at {self.address:#x} must decode to >= 1 uop")
        if self.imm_disp_count < 0:
            raise WorkloadError("imm/disp count must be >= 0")
        if self.address < 0:
            raise WorkloadError("instruction address must be non-negative")
        if self.branch_target is None and self.branch_kind in _DIRECT_KINDS:
            raise WorkloadError(
                f"direct branch at {self.address:#x} requires a static target")

    def placed(self, address: int, branch_target: Optional[int],
               branch_kind: Optional[BranchKind] = None) -> "X86Instruction":
        """This instruction at ``address`` with ``branch_target`` (and
        ``branch_kind``, if given); every other field is kept.

        Equal to ``dataclasses.replace`` on those fields at two thirds of
        its cost (no per-field introspection).  Copy any new field here
        too; tests/test_isa_builder.py fails until it is.
        """
        return X86Instruction(
            address=address, length=self.length, inst_class=self.inst_class,
            uop_count=self.uop_count, imm_disp_count=self.imm_disp_count,
            branch_kind=(self.branch_kind if branch_kind is None
                         else branch_kind),
            branch_target=branch_target, is_microcoded=self.is_microcoded,
            reads_memory=self.reads_memory, writes_memory=self.writes_memory)

    @property
    def end_address(self) -> int:
        """Address of the first byte past this instruction."""
        return self.address + self.length

    @property
    def next_sequential(self) -> int:
        return self.end_address

    @property
    def is_branch(self) -> bool:
        return self.branch_kind is not BranchKind.NONE

    @property
    def is_conditional_branch(self) -> bool:
        return self.branch_kind is BranchKind.CONDITIONAL

    @property
    def is_unconditional_transfer(self) -> bool:
        return self.branch_kind in (
            BranchKind.UNCONDITIONAL, BranchKind.CALL,
            BranchKind.INDIRECT_CALL, BranchKind.RET, BranchKind.INDIRECT)

    def cache_lines(self, line_bytes: int = 64) -> Tuple[int, ...]:
        """The I-cache line addresses this instruction's bytes touch."""
        first = self.address // line_bytes
        last = (self.end_address - 1) // line_bytes
        return tuple(line * line_bytes for line in range(first, last + 1))

    def spans_line_boundary(self, line_bytes: int = 64) -> bool:
        return len(self.cache_lines(line_bytes)) > 1
