"""Unit tests for the combined branch prediction unit."""

import pytest

from repro.branch.predictor import BranchPredictionUnit, PredictionOutcome
from repro.isa.instruction import BranchKind, InstClass, X86Instruction


def branch(pc, kind, target=None, length=2):
    inst_class = InstClass.BRANCH
    if kind is BranchKind.CALL or kind is BranchKind.INDIRECT_CALL:
        inst_class = InstClass.CALL
        length = 5
    elif kind is BranchKind.RET:
        inst_class = InstClass.RET
        length = 1
    return X86Instruction(address=pc, length=length, inst_class=inst_class,
                          uop_count=1, branch_kind=kind, branch_target=target)


class TestConditional:
    def test_learned_branch_correct(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.CONDITIONAL, 0x2000)
        for _ in range(20):
            bpu.observe(inst, True, 0x2000)
        outcome = bpu.observe(inst, True, 0x2000)
        assert outcome is PredictionOutcome.CORRECT

    def test_direction_flip_mispredicts(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.CONDITIONAL, 0x2000)
        for _ in range(20):
            bpu.observe(inst, True, 0x2000)
        outcome = bpu.observe(inst, False, inst.end_address)
        assert outcome is PredictionOutcome.MISPREDICT

    def test_first_taken_needs_btb(self):
        """A correctly-predicted-taken branch with a cold BTB resteers."""
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.CONDITIONAL, 0x2000)
        # Train direction (not-taken mispredicts don't touch BTB).
        for _ in range(20):
            bpu.observe(inst, True, 0x2000)
        # By now the BTB knows the target.
        outcome = bpu.observe(inst, True, 0x2000)
        assert outcome is PredictionOutcome.CORRECT


class TestDirect:
    def test_cold_jump_resteers(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.UNCONDITIONAL, 0x4000)
        outcome = bpu.observe(inst, True, 0x4000)
        assert outcome is PredictionOutcome.DECODE_RESTEER

    def test_warm_jump_correct(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.UNCONDITIONAL, 0x4000)
        bpu.observe(inst, True, 0x4000)
        outcome = bpu.observe(inst, True, 0x4000)
        assert outcome is PredictionOutcome.CORRECT


class TestCallReturn:
    def test_matched_call_return(self):
        bpu = BranchPredictionUnit()
        call = branch(0x1000, BranchKind.CALL, 0x4000)
        ret = branch(0x4010, BranchKind.RET)
        bpu.observe(call, True, 0x4000)
        outcome = bpu.observe(ret, True, call.end_address)
        assert outcome is PredictionOutcome.CORRECT

    def test_return_to_wrong_place_mispredicts(self):
        bpu = BranchPredictionUnit()
        call = branch(0x1000, BranchKind.CALL, 0x4000)
        ret = branch(0x4010, BranchKind.RET)
        bpu.observe(call, True, 0x4000)
        outcome = bpu.observe(ret, True, 0x9999)
        assert outcome is PredictionOutcome.MISPREDICT

    def test_empty_ras_mispredicts(self):
        bpu = BranchPredictionUnit()
        ret = branch(0x4010, BranchKind.RET)
        outcome = bpu.observe(ret, True, 0x1005)
        assert outcome is PredictionOutcome.MISPREDICT

    def test_nested_calls(self):
        bpu = BranchPredictionUnit()
        call1 = branch(0x1000, BranchKind.CALL, 0x4000)
        call2 = branch(0x4000, BranchKind.CALL, 0x5000)
        ret2 = branch(0x5010, BranchKind.RET)
        ret1 = branch(0x4010, BranchKind.RET)
        bpu.observe(call1, True, 0x4000)
        bpu.observe(call2, True, 0x5000)
        assert bpu.observe(ret2, True, call2.end_address) is \
            PredictionOutcome.CORRECT
        assert bpu.observe(ret1, True, call1.end_address) is \
            PredictionOutcome.CORRECT

    def test_indirect_call_pushes_ras(self):
        bpu = BranchPredictionUnit()
        icall = branch(0x1000, BranchKind.INDIRECT_CALL)
        ret = branch(0x4010, BranchKind.RET)
        bpu.observe(icall, True, 0x4000)
        outcome = bpu.observe(ret, True, icall.end_address)
        assert outcome is PredictionOutcome.CORRECT


class TestIndirect:
    def test_cold_indirect_mispredicts(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.INDIRECT)
        outcome = bpu.observe(inst, True, 0x7000)
        assert outcome is PredictionOutcome.MISPREDICT

    def test_stable_indirect_correct(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.INDIRECT)
        bpu.observe(inst, True, 0x7000)
        outcome = bpu.observe(inst, True, 0x7000)
        assert outcome is PredictionOutcome.CORRECT

    def test_target_switch_mispredicts_once(self):
        bpu = BranchPredictionUnit()
        inst = branch(0x1000, BranchKind.INDIRECT)
        bpu.observe(inst, True, 0x7000)
        assert bpu.observe(inst, True, 0x8000) is \
            PredictionOutcome.MISPREDICT
        assert bpu.observe(inst, True, 0x8000) is \
            PredictionOutcome.CORRECT


class TestAccounting:
    def test_non_branch_rejected(self):
        bpu = BranchPredictionUnit()
        alu = X86Instruction(address=0x1, length=2, inst_class=InstClass.ALU,
                             uop_count=1)
        with pytest.raises(ValueError):
            bpu.observe(alu, False, 0x3)
