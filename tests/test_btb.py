"""Unit tests for the BTB and return-address stack."""

import pytest

from repro.branch.btb import (
    BranchTargetBuffer,
    BtbOutcome,
    ReturnAddressStack,
)
from repro.common.config import BranchPredictorConfig
from repro.isa.instruction import BranchKind


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer()
        outcome, record = btb.lookup(0x1000)
        assert outcome is BtbOutcome.MISS
        assert record is None
        btb.install(0x1000, 0x2000, BranchKind.UNCONDITIONAL)
        outcome, record = btb.lookup(0x1000)
        assert outcome is BtbOutcome.L1_HIT
        assert record.target == 0x2000

    def test_l2_hit_promotes_to_l1(self):
        cfg = BranchPredictorConfig(btb_entries=64)
        btb = BranchTargetBuffer(cfg)
        btb.install(0x1000, 0x2000, BranchKind.CALL)
        # Evict from the small L1 by installing many other branches.
        for i in range(1, 64):
            btb.install(0x1000 + i * 256, 0x3000, BranchKind.CALL)
        outcome, record = btb.lookup(0x1000)
        assert outcome in (BtbOutcome.L2_HIT, BtbOutcome.L1_HIT)
        if outcome is BtbOutcome.L2_HIT:
            # Promoted: next lookup hits L1.
            outcome2, _ = btb.lookup(0x1000)
            assert outcome2 is BtbOutcome.L1_HIT

    def test_two_branches_share_region_entry(self):
        btb = BranchTargetBuffer()
        btb.install(0x1000, 0x2000, BranchKind.CONDITIONAL)
        btb.install(0x1008, 0x3000, BranchKind.CONDITIONAL)  # same 16B region
        assert btb.lookup(0x1000)[1].target == 0x2000
        assert btb.lookup(0x1008)[1].target == 0x3000

    def test_third_branch_evicts_from_region(self):
        btb = BranchTargetBuffer()
        btb.install(0x1000, 0x2000, BranchKind.CONDITIONAL)
        btb.install(0x1004, 0x3000, BranchKind.CONDITIONAL)
        btb.install(0x1008, 0x4000, BranchKind.CONDITIONAL)
        hits = sum(btb.lookup(pc)[0] is not BtbOutcome.MISS
                   for pc in (0x1000, 0x1004, 0x1008))
        assert hits == 2

    def test_update_target_changes_prediction(self):
        btb = BranchTargetBuffer()
        btb.install(0x1000, 0x2000, BranchKind.INDIRECT)
        btb.update_target(0x1000, 0x5000, BranchKind.INDIRECT)
        assert btb.lookup(0x1000)[1].target == 0x5000

    def test_capacity_eviction(self):
        cfg = BranchPredictorConfig(btb_entries=16)
        btb = BranchTargetBuffer(cfg)
        for i in range(64):
            btb.install(i * 256, 0x9000, BranchKind.UNCONDITIONAL)
        outcome, _ = btb.lookup(0)
        assert outcome is BtbOutcome.MISS


class TestRas:
    def test_push_pop(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(8)
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(0x1)
        ras.push(0x2)
        ras.push(0x3)
        assert ras.depth == 2
        assert ras.pop() == 0x3
        assert ras.pop() == 0x2
        assert ras.pop() is None
