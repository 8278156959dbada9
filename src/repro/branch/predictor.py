"""The front-end branch prediction unit: TAGE + BTB + RAS.

For every dynamic control-transfer instruction the unit produces a
:class:`PredictionOutcome` classifying the front-end consequence:

- ``CORRECT`` — predicted path matches the resolved path;
- ``DECODE_RESTEER`` — the direction was right but the BTB had no target
  (or the hit came from the slow BTB level), so fetch restarts from decode:
  a short, fixed bubble;
- ``MISPREDICT`` — direction/target wrong; the pipeline redirects when the
  branch *resolves* in the back-end (the expensive case the paper measures).

This is the standard trace-driven decomposition: prediction windows follow
the resolved path while penalties are charged according to what the real
predictor would have done.

The unit reads only the resolved trace: no timing and no uop-cache state.
So its outcome stream is a pure function of the trace and the
:class:`BranchPredictorConfig`, and :func:`outcome_column` computes it once
per trace, one byte per record.  The serve loops and the oracle read that
column; nothing else drives the unit.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from ..common.config import BranchPredictorConfig
from ..isa.instruction import BranchKind, X86Instruction
from ..workloads.trace import Trace
from .btb import BranchTargetBuffer, BtbOutcome, ReturnAddressStack
from .tage import TagePredictor


class PredictionOutcome(enum.IntEnum):
    """What :meth:`BranchPredictionUnit.observe` returns.  An ``IntEnum``,
    so it is stored in an outcome column as its plain value: compare a
    column byte with ``==``, never ``is``."""

    CORRECT = 0
    DECODE_RESTEER = 1
    MISPREDICT = 2


#: Outcome-column value of a record that is not a branch.
NOT_A_BRANCH = 3

# Module-level aliases: on the per-branch path a global load costs a
# third of an enum attribute lookup.
_CORRECT, _DECODE_RESTEER, _MISPREDICT = PredictionOutcome


class BranchPredictionUnit:
    """Combines direction, target and return-address prediction."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        self.config = config or BranchPredictorConfig()
        self.tage = TagePredictor(self.config)
        self.btb = BranchTargetBuffer(self.config)
        self.ras = ReturnAddressStack(self.config.ras_entries)

    def observe(self, inst: X86Instruction, taken: bool,
                actual_target: int) -> PredictionOutcome:
        """Resolve one dynamic branch and update all predictor state.
        Conditional branches, the overwhelmingly common kind, go through
        the fused single-walk :meth:`TagePredictor.observe`."""
        kind = inst.branch_kind

        if kind is BranchKind.CONDITIONAL:
            address = inst.address
            predicted_taken = self.tage.observe(address, taken)
            if predicted_taken != taken:
                if taken:
                    self.btb.install(address, actual_target, kind)
                return _MISPREDICT
            if taken:
                btb_outcome, record = self.btb.lookup(address)
                self.btb.install(address, actual_target, kind)
                if btb_outcome is BtbOutcome.MISS or record is None:
                    return _DECODE_RESTEER
                if record.target != actual_target:
                    return _MISPREDICT
            return _CORRECT

        if kind in (BranchKind.UNCONDITIONAL, BranchKind.CALL):
            outcome = self._observe_direct(inst, actual_target)
            if kind is BranchKind.CALL:
                self.ras.push(inst.end_address)
        elif kind is BranchKind.INDIRECT_CALL:
            outcome = self._observe_indirect(inst, actual_target)
            self.ras.push(inst.end_address)
        elif kind is BranchKind.RET:
            outcome = self._observe_return(actual_target)
        elif kind is BranchKind.INDIRECT:
            outcome = self._observe_indirect(inst, actual_target)
        else:
            raise ValueError(f"instruction at {inst.address:#x} is not a branch")
        return outcome

    # Old name, kept only because perfbench/tracer.py wraps it by name and
    # warns when it is missing; ROADMAP item 2 drops it.
    observe_fast = observe

    def _observe_direct(self, inst: X86Instruction,
                        actual_target: int) -> PredictionOutcome:
        btb_outcome, record = self.btb.lookup(inst.address)
        self.btb.install(inst.address, actual_target, inst.branch_kind)
        if btb_outcome is BtbOutcome.MISS or record is None:
            return _DECODE_RESTEER
        return _CORRECT

    def _observe_return(self, actual_target: int) -> PredictionOutcome:
        predicted = self.ras.pop()
        if predicted is None or predicted != actual_target:
            return _MISPREDICT
        return _CORRECT

    def _observe_indirect(self, inst: X86Instruction,
                          actual_target: int) -> PredictionOutcome:
        btb_outcome, record = self.btb.lookup(inst.address)
        self.btb.update_target(inst.address, actual_target, inst.branch_kind)
        if btb_outcome is BtbOutcome.MISS or record is None or \
                record.target != actual_target:
            return _MISPREDICT
        return _CORRECT


def outcome_column(trace: Trace, config: BranchPredictorConfig) -> bytes:
    """The branch outcome of every record of ``trace``, one byte each.

    A branch record holds its :class:`PredictionOutcome` value and any
    other record :data:`NOT_A_BRANCH`.  One :class:`BranchPredictionUnit`
    observes the branch records in trace order, the order in which every
    serve path consumes them, so outcome *i* depends only on records
    0..*i*: the column of a trace prefix is the prefix of this column.
    Under ``config.perfect`` every branch is ``CORRECT`` and no unit is
    built.
    """
    program = trace.program
    records = trace.records
    column = bytearray((NOT_A_BRANCH,)) * len(records)
    # Looked up on the instance, so a wrapper installed on the class
    # (perfbench's tracer) sees every call.
    observe = None if config.perfect else \
        BranchPredictionUnit(config).observe
    # Per static PC: (the branch, its end address), or None for any other
    # instruction.  Saves a program lookup and two properties per record.
    statics: Dict[int, Optional[Tuple[X86Instruction, int]]] = {}
    get_static = statics.get
    for i, record in enumerate(records):
        pc = record.pc
        static = get_static(pc, False)
        if static is False:
            inst = program.at(pc)
            static = (inst, inst.end_address) if inst.is_branch else None
            statics[pc] = static
        if static is not None:
            if observe is None:
                column[i] = _CORRECT
            else:
                inst, end_address = static
                next_pc = record.next_pc
                column[i] = observe(inst, next_pc != end_address, next_pc)
    return bytes(column)
