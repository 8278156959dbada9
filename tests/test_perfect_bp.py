"""Tests for the perfect-branch-prediction limit-study mode."""

import dataclasses

import pytest

from repro.branch.predictor import (NOT_A_BRANCH, PredictionOutcome,
                                    outcome_column)
from repro.common.config import BranchPredictorConfig, baseline_config
from repro.core.simulator import simulate
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
    """Perfect prediction is an all-correct branch-outcome column."""

    def test_never_mispredicts(self, trace):
        column = outcome_column(trace, BranchPredictorConfig(perfect=True))
        assert PredictionOutcome.MISPREDICT not in column
        assert PredictionOutcome.DECODE_RESTEER not in column
        # A real predictor does mispredict and resteer on this trace.
        real = outcome_column(trace, BranchPredictorConfig())
        assert PredictionOutcome.MISPREDICT in real
        assert PredictionOutcome.DECODE_RESTEER in real

    def test_still_counts_branches(self, trace):
        branches = sum(trace.program.at(record.pc).is_branch
                       for record in trace.records)
        column = outcome_column(trace, BranchPredictorConfig(perfect=True))
        assert column.count(PredictionOutcome.CORRECT) == branches
        assert column.count(NOT_A_BRANCH) == len(trace.records) - branches
        assert simulate(trace, perfect_config(), "perfect").branches == \
            branches


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
