"""Unit tests for workload generation and trace walking."""

import dataclasses

import pytest

from repro.common.errors import WorkloadError
from repro.common.hashing import derive_stream_seed, splitmix64
from repro.isa.instruction import BranchKind
from repro.workloads.generator import (
    BiasedBehavior,
    IndirectBehavior,
    LoopBehavior,
    WorkloadGenerator,
    WorkloadProfile,
    generate_workload,
)

SMALL = WorkloadProfile(name="small-test", num_functions=12,
                        blocks_per_function=(3, 6), insts_per_block=(2, 6))


@pytest.fixture(scope="module")
def workload():
    return generate_workload(SMALL, seed=3)


class TestProfileValidation:
    def test_zero_functions_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="x", num_functions=0)

    def test_bad_block_range_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="x", blocks_per_function=(5, 2))

    def test_fraction_overflow_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="x", loop_fraction=0.5, call_fraction=0.5,
                            uncond_fraction=0.3)

    def test_hard_fraction_bounds(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(name="x", hard_branch_fraction=1.5)

    def test_negative_phase_length_rejected(self):
        with pytest.raises(WorkloadError, match="phase_length"):
            WorkloadProfile(name="x", phase_length=-1)

    @pytest.mark.parametrize("insts", [(0, 2), (0, 0)])
    def test_empty_blocks_rejected(self, insts):
        # (0, k) used to pass here and fail generation with "generated an
        # empty basic block" once a fallthrough block drew 0 instructions.
        with pytest.raises(WorkloadError, match="insts_per_block"):
            WorkloadProfile(name="x", num_functions=8, insts_per_block=insts)

    @pytest.mark.parametrize("targets", [(0, 3), (5, 2), (0, 0)])
    def test_degenerate_indirect_call_targets_rejected(self, targets):
        with pytest.raises(WorkloadError, match="indirect_call_targets"):
            WorkloadProfile(name="x", indirect_call_targets=targets)

    @pytest.mark.parametrize("trips", [(), (0,), (3, 0)])
    def test_bad_loop_trip_counts_rejected(self, trips):
        with pytest.raises(WorkloadError, match="loop_trip_counts"):
            WorkloadProfile(name="x", loop_trip_counts=trips)

    def test_zero_stickiness_rejected(self):
        with pytest.raises(WorkloadError, match="indirect_stickiness"):
            WorkloadProfile(name="x", indirect_stickiness=0)

    def test_zero_call_depth_rejected(self):
        with pytest.raises(WorkloadError, match="max_call_depth"):
            WorkloadProfile(name="x", max_call_depth=0)

    def test_negative_zipf_rejected(self):
        with pytest.raises(WorkloadError, match="hot_function_zipf"):
            WorkloadProfile(name="x", hot_function_zipf=-0.1)

    def test_zero_alignment_rejected(self):
        with pytest.raises(WorkloadError, match="function_alignment"):
            WorkloadProfile(name="x", function_alignment=0)

    def test_tiny_working_set_rejected(self):
        with pytest.raises(WorkloadError, match="data_working_set_bytes"):
            WorkloadProfile(name="x", data_working_set_bytes=4)

    @pytest.mark.parametrize("field", ["easy_taken_bias",
                                       "indirect_call_fraction",
                                       "driver_uniform_fraction"])
    def test_out_of_range_fractions_rejected(self, field):
        with pytest.raises(WorkloadError, match=field):
            WorkloadProfile(name="x", **{field: 1.01})


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_workload(SMALL, seed=5)
        b = generate_workload(SMALL, seed=5)
        assert a.program.num_instructions == b.program.num_instructions
        pcs_a = sorted(i.address for i in a.program.instructions())
        pcs_b = sorted(i.address for i in b.program.instructions())
        assert pcs_a == pcs_b

    def test_different_seeds_differ(self):
        a = generate_workload(SMALL, seed=5)
        b = generate_workload(SMALL, seed=6)
        pcs_a = sorted(i.address for i in a.program.instructions())
        pcs_b = sorted(i.address for i in b.program.instructions())
        assert pcs_a != pcs_b

    def test_function_count_includes_driver(self, workload):
        assert len(workload.program.functions) == SMALL.num_functions + 1
        assert workload.program.functions[-1].name == "driver"

    def test_entry_is_driver(self, workload):
        assert workload.program.entry == workload.program.functions[-1].entry

    def test_every_function_ends_in_ret(self, workload):
        for function in workload.program.functions[:-1]:
            assert function.blocks[-1].terminator.branch_kind is BranchKind.RET

    def test_direct_branch_targets_decodable(self, workload):
        program = workload.program
        for inst in program.instructions():
            if inst.branch_kind in (BranchKind.CONDITIONAL,
                                    BranchKind.UNCONDITIONAL, BranchKind.CALL):
                assert program.contains(inst.branch_target)

    def test_behaviors_attached_to_real_branches(self, workload):
        program = workload.program
        for pc, behavior in workload.behaviors.items():
            inst = program.at(pc)
            if isinstance(behavior, (LoopBehavior, BiasedBehavior)):
                assert inst.branch_kind is BranchKind.CONDITIONAL
            elif isinstance(behavior, IndirectBehavior):
                assert inst.branch_kind in (BranchKind.INDIRECT,
                                            BranchKind.INDIRECT_CALL)

    def test_indirect_targets_decodable(self, workload):
        program = workload.program
        for behavior in workload.behaviors.values():
            if isinstance(behavior, IndirectBehavior):
                for target in behavior.targets:
                    assert program.contains(target)
                assert abs(sum(behavior.weights) - 1.0) < 1e-9

    def test_functions_do_not_overlap(self, workload):
        ranges = []
        for function in workload.program.functions:
            lo = min(b.start for b in function.blocks)
            hi = max(b.end for b in function.blocks)
            ranges.append((lo, hi))
        ranges.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 <= lo2


class TestTraceWalk:
    def test_trace_length(self, workload):
        trace = workload.trace(5000, seed=1)
        assert len(trace) == 5000

    def test_trace_validates(self, workload):
        workload.trace(5000, seed=1).validate()

    def test_trace_deterministic(self, workload):
        a = workload.trace(2000, seed=9)
        b = workload.trace(2000, seed=9)
        assert [(r.pc, r.next_pc) for r in a] == [(r.pc, r.next_pc) for r in b]

    def test_trace_seed_changes_walk(self, workload):
        a = workload.trace(2000, seed=1)
        b = workload.trace(2000, seed=2)
        assert [(r.pc, r.next_pc) for r in a] != [(r.pc, r.next_pc) for r in b]

    def test_zero_length_rejected(self, workload):
        with pytest.raises(WorkloadError):
            workload.trace(0)

    def test_memory_addresses_only_on_memory_insts(self, workload):
        trace = workload.trace(3000, seed=4)
        for record in trace:
            inst = trace.program.at(record.pc)
            if record.mem_addr is not None:
                assert inst.reads_memory or inst.writes_memory

    def test_loop_branches_respect_trip_counts(self, workload):
        """A loop branch must fall through exactly once per trip_count visits."""
        trace = workload.trace(20_000, seed=2)
        program = workload.program
        taken = {}
        fell = {}
        for record in trace:
            behavior = workload.behaviors.get(record.pc)
            if isinstance(behavior, LoopBehavior):
                inst = program.at(record.pc)
                if record.next_pc == inst.end_address:
                    fell[record.pc] = fell.get(record.pc, 0) + 1
                else:
                    taken[record.pc] = taken.get(record.pc, 0) + 1
        for pc, exits in fell.items():
            behavior = workload.behaviors[pc]
            total = exits + taken.get(pc, 0)
            # Every trip_count-th execution falls through (+- trailing partial).
            expected = total // behavior.trip_count
            assert abs(exits - expected) <= 1


class TestSeedDerivation:
    """Regression tests for the SplitMix64-based walk-seed derivation.

    The previous scheme (``seed * 2654435761 % (1 << 32)``) mapped seed=0
    to RNG seed 0 regardless of workload, and gave every workload sharing a
    seed an identical walk stream.
    """

    def _pcs(self, wl, seed):
        return [record.pc for record in wl.trace(2_000, seed=seed)]

    def test_seed_zero_is_not_degenerate(self, workload):
        assert derive_stream_seed(0, SMALL.name) != 0
        assert self._pcs(workload, 0) != self._pcs(workload, 1)

    def test_distinct_seeds_give_distinct_streams(self, workload):
        streams = {tuple(self._pcs(workload, seed)) for seed in range(8)}
        assert len(streams) == 8

    def test_same_seed_is_reproducible(self, workload):
        assert self._pcs(workload, 4) == self._pcs(workload, 4)

    def test_stream_is_salted_by_workload_name(self):
        renamed = dataclasses.replace(SMALL, name="small-test-b")
        assert derive_stream_seed(11, SMALL.name) != \
            derive_stream_seed(11, renamed.name)

    def test_splitmix64_is_bijective_on_sample(self):
        outputs = {splitmix64(value) for value in range(4096)}
        assert len(outputs) == 4096

    def test_splitmix64_stays_in_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**80):
            assert 0 <= splitmix64(value) < 2**64
