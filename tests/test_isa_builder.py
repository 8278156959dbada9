"""Tests for the instruction builder's statistical realism."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import WorkloadError
from repro.isa.builder import (
    FP_HEAVY_MIX,
    INTEGER_MIX,
    SERVER_MIX,
    InstructionBuilder,
    InstructionMix,
    _weighted_draw,
)
from repro.isa.instruction import BranchKind, InstClass, X86Instruction


@pytest.fixture
def builder():
    return InstructionBuilder(random.Random(1), INTEGER_MIX)


class TestMix:
    def test_weights_normalized(self):
        weights = INTEGER_MIX.weights()
        assert sum(w for _, w in weights) == pytest.approx(1.0)

    def test_zero_mix_rejected(self):
        mix = InstructionMix(alu=0, nop=0, load=0, store=0, load_alu=0,
                             fp=0, avx=0, microcoded=0)
        with pytest.raises(WorkloadError):
            mix.weights()

    def test_predefined_mixes_valid(self):
        for mix in (INTEGER_MIX, FP_HEAVY_MIX, SERVER_MIX):
            assert sum(w for _, w in mix.weights()) == pytest.approx(1.0)


class TestStraightline:
    def test_addresses_respected(self, builder):
        inst = builder.straightline(0x1234)
        assert inst.address == 0x1234

    def test_never_a_branch(self, builder):
        for i in range(200):
            inst = builder.straightline(0x1000 + i * 16)
            assert not inst.is_branch

    def test_realistic_mean_length(self):
        """x86-64 code averages ~3.5-4.5 bytes per instruction."""
        builder = InstructionBuilder(random.Random(7), INTEGER_MIX)
        lengths = [builder.straightline(0).length for _ in range(3000)]
        mean = sum(lengths) / len(lengths)
        assert 3.0 <= mean <= 5.0

    def test_lengths_within_x86_bounds(self, builder):
        for _ in range(500):
            inst = builder.straightline(0)
            assert 1 <= inst.length <= 15

    def test_uop_inflation_plausible(self):
        """Average uops per instruction lands near 1.1-1.5."""
        builder = InstructionBuilder(random.Random(9), INTEGER_MIX)
        uops = [builder.straightline(0).uop_count for _ in range(3000)]
        mean = sum(uops) / len(uops)
        assert 1.0 <= mean <= 1.7

    def test_microcoded_flagged(self):
        builder = InstructionBuilder(
            random.Random(3),
            InstructionMix(alu=0, nop=0, load=0, store=0, load_alu=0,
                           fp=0, avx=0, microcoded=1.0))
        inst = builder.straightline(0)
        assert inst.is_microcoded
        assert inst.uop_count >= 4


class TestControlTransfers:
    def test_conditional(self, builder):
        inst = builder.conditional_branch(0x100, 0x200)
        assert inst.branch_kind is BranchKind.CONDITIONAL
        assert inst.branch_target == 0x200

    def test_unconditional(self, builder):
        inst = builder.unconditional_jump(0x100, 0x300)
        assert inst.branch_kind is BranchKind.UNCONDITIONAL

    def test_call(self, builder):
        inst = builder.call(0x100, 0x400)
        assert inst.branch_kind is BranchKind.CALL
        assert inst.inst_class is InstClass.CALL
        assert inst.uop_count == 2

    def test_indirect_call(self, builder):
        inst = builder.indirect_call(0x100)
        assert inst.branch_kind is BranchKind.INDIRECT_CALL
        assert inst.branch_target is None

    def test_ret(self, builder):
        inst = builder.ret(0x100)
        assert inst.branch_kind is BranchKind.RET
        assert inst.length == 1

    def test_indirect_jump(self, builder):
        inst = builder.indirect_jump(0x100)
        assert inst.branch_kind is BranchKind.INDIRECT

    def test_determinism(self):
        a = InstructionBuilder(random.Random(5), INTEGER_MIX)
        b = InstructionBuilder(random.Random(5), INTEGER_MIX)
        for i in range(100):
            assert a.straightline(i * 16) == b.straightline(i * 16)


class TestWeightedDraw:
    """The builder's prepared draw is ``random.choices`` without the
    per-call cumulative-weight rebuild: same value, same RNG state."""

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(
               st.one_of(st.integers(min_value=1, max_value=1000),
                         st.floats(min_value=1e-9, max_value=1e9)),
               min_size=1, max_size=12),
           seed=st.integers(min_value=0, max_value=2 ** 64),
           draws=st.integers(min_value=1, max_value=16))
    def test_draw_equals_random_choices(self, weights, seed, draws):
        values = [f"v{i}" for i in range(len(weights))]
        ours, reference = random.Random(seed), random.Random(seed)
        draw = _weighted_draw(ours, list(zip(values, weights)))
        for _ in range(draws):
            expected = reference.choices(values, weights=weights, k=1)[0]
            assert draw() == expected
            assert ours.getstate() == reference.getstate()

    @pytest.mark.parametrize("dist", [
        ((1, 0.0),), ((1, float("inf")), (2, 1.0))])
    def test_non_positive_or_infinite_total_rejected(self, dist):
        with pytest.raises(WorkloadError):
            _weighted_draw(random.Random(1), dist)


class TestPlaced:
    def _templates(self):
        b = InstructionBuilder(random.Random(9), INTEGER_MIX)
        return [b.conditional_branch(0x10, 0x10), b.call(0x20, 0x20),
                b.ret(0x30), b.indirect_jump(0x40),
                b.of_class(0x50, InstClass.MICROCODED)]

    def test_equals_dataclasses_replace(self):
        for template in self._templates():
            target = template.branch_target and template.branch_target + 64
            assert template.placed(0x1000, target) == dataclasses.replace(
                template, address=0x1000, branch_target=target)

    def test_kind_override(self):
        call = self._templates()[1]
        assert call.placed(0x1000, None, BranchKind.INDIRECT_CALL) == \
            dataclasses.replace(call, address=0x1000, branch_target=None,
                                branch_kind=BranchKind.INDIRECT_CALL)

    def test_copies_every_field(self):
        # Fails when X86Instruction gains a field: copy it in placed().
        assert [f.name for f in dataclasses.fields(X86Instruction)] == [
            "address", "length", "inst_class", "uop_count", "imm_disp_count",
            "branch_kind", "branch_target", "is_microcoded", "reads_memory",
            "writes_memory"]
