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
"""

from __future__ import annotations

import enum
from typing import Optional

from ..common.config import BranchPredictorConfig
from ..isa.instruction import BranchKind, X86Instruction
from .btb import BranchTargetBuffer, BtbOutcome, ReturnAddressStack
from .tage import TagePredictor


class PredictionOutcome(enum.IntEnum):
    """What :meth:`BranchPredictionUnit.observe` returns.  An ``IntEnum``,
    so the serve loops can compare it with plain ints and no object is
    allocated per branch."""

    CORRECT = 0
    DECODE_RESTEER = 1
    MISPREDICT = 2


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
        self.branches = 0
        self.mispredicts = 0
        self.decode_resteers = 0

    def observe(self, inst: X86Instruction, taken: bool,
                actual_target: int) -> PredictionOutcome:
        """Resolve one dynamic branch; updates all predictor state and the
        outcome counters.  Conditional branches, the overwhelmingly common
        kind, go through the fused single-walk
        :meth:`TagePredictor.observe`."""
        self.branches += 1
        if self.config.perfect:
            # Limit study: still trains the predictors (so statistics stay
            # meaningful) but never reports a redirect.
            self._train_only(inst, taken, actual_target)
            return _CORRECT
        kind = inst.branch_kind

        if kind is BranchKind.CONDITIONAL:
            address = inst.address
            predicted_taken = self.tage.observe(address, taken)
            if predicted_taken != taken:
                if taken:
                    self.btb.install(address, actual_target, kind)
                self.mispredicts += 1
                return _MISPREDICT
            if taken:
                btb_outcome, record = self.btb.lookup(address)
                self.btb.install(address, actual_target, kind)
                if btb_outcome is BtbOutcome.MISS or record is None:
                    self.decode_resteers += 1
                    return _DECODE_RESTEER
                if record.target != actual_target:
                    self.mispredicts += 1
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
        if outcome is _MISPREDICT:
            self.mispredicts += 1
        elif outcome is _DECODE_RESTEER:
            self.decode_resteers += 1
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

    def _train_only(self, inst: X86Instruction, taken: bool,
                    actual_target: int) -> None:
        kind = inst.branch_kind
        if kind is BranchKind.CONDITIONAL:
            self.tage.update(inst.address, taken)
            if taken:
                self.btb.install(inst.address, actual_target, kind)
        elif kind in (BranchKind.UNCONDITIONAL, BranchKind.CALL,
                      BranchKind.INDIRECT_CALL, BranchKind.INDIRECT):
            self.btb.install(inst.address, actual_target, kind)
            if kind in (BranchKind.CALL, BranchKind.INDIRECT_CALL):
                self.ras.push(inst.end_address)
        elif kind is BranchKind.RET:
            self.ras.pop()

    @property
    def mpki_denominator(self) -> int:
        return self.branches

    def mpki(self, instructions: int) -> float:
        return 1000.0 * self.mispredicts / instructions if instructions else 0.0
