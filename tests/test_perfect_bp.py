"""Tests for the perfect-branch-prediction limit-study mode."""

import dataclasses

import pytest

from repro.branch.predictor import BranchPredictionUnit, PredictionOutcome
from repro.common.config import BranchPredictorConfig, baseline_config
from repro.core.simulator import simulate
from repro.isa.instruction import BranchKind, InstClass, X86Instruction
from repro.workloads.generator import WorkloadProfile, generate_workload

PROFILE = WorkloadProfile(name="perfect-test", num_functions=20,
                          blocks_per_function=(3, 6), insts_per_block=(1, 5),
                          hard_branch_fraction=0.3)


def perfect_config(capacity=2048):
    return dataclasses.replace(
        baseline_config(capacity),
        branch=BranchPredictorConfig(perfect=True))


@pytest.fixture(scope="module")
def trace():
    return generate_workload(PROFILE, seed=31).trace(10_000, seed=32)


class TestPerfectUnit:
    def test_never_mispredicts(self):
        bpu = BranchPredictionUnit(BranchPredictorConfig(perfect=True))
        ret = X86Instruction(address=0x100, length=1,
                             inst_class=InstClass.RET, uop_count=2,
                             branch_kind=BranchKind.RET)
        # Cold return with empty RAS would normally mispredict.
        outcome = bpu.observe(ret, True, 0x9999)
        assert outcome is PredictionOutcome.CORRECT
        assert bpu.mispredicts == 0

    def test_still_counts_branches(self):
        bpu = BranchPredictionUnit(BranchPredictorConfig(perfect=True))
        jump = X86Instruction(address=0x100, length=2,
                              inst_class=InstClass.BRANCH, uop_count=1,
                              branch_kind=BranchKind.UNCONDITIONAL,
                              branch_target=0x200)
        bpu.observe(jump, True, 0x200)
        assert bpu.branches == 1


class TestPerfectSimulation:
    def test_zero_mispredicts(self, trace):
        result = simulate(trace, perfect_config(), "perfect")
        assert result.branch_mispredicts == 0
        assert result.decode_resteers == 0
        assert result.branch_mpki == 0.0

    def test_never_slower_than_real_bp(self, trace):
        real = simulate(trace, baseline_config(2048), "real")
        perfect = simulate(trace, perfect_config(), "perfect")
        assert perfect.upc >= real.upc

    def test_uop_conservation(self, trace):
        result = simulate(trace, perfect_config(), "perfect")
        assert result.uops == trace.num_dynamic_uops

    def test_front_end_effects_still_present(self, trace):
        """With branches free, capacity still moves performance."""
        small = simulate(trace, perfect_config(2048), "2k")
        large = simulate(trace, perfect_config(16384), "16k")
        assert large.oc_fetch_ratio >= small.oc_fetch_ratio - 0.01
