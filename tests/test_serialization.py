"""Tests for the program-image dict codec.

The ``.uoptrace`` PROG section stores this codec's dicts as canonical JSON
(tests/test_tracefile.py covers the file format around it), so each round
trip here goes through that same JSON text.
"""

import json

import pytest

from repro.common.errors import WorkloadError
from repro.common.integrity import canonical_json
from repro.workloads.generator import WorkloadProfile, generate_workload
from repro.workloads.serialization import (
    _workload_from_dict,
    _workload_to_dict,
)

PROFILE = WorkloadProfile(name="ser-test", num_functions=10,
                          blocks_per_function=(2, 5), insts_per_block=(1, 5))


@pytest.fixture(scope="module")
def workload():
    return generate_workload(PROFILE, seed=11)


def _round_trip(workload):
    return _workload_from_dict(
        json.loads(canonical_json(_workload_to_dict(workload))))


class TestWorkloadRoundtrip:
    def test_program_identical(self, workload):
        loaded = _round_trip(workload)
        assert loaded.program.num_instructions == \
            workload.program.num_instructions
        assert loaded.program.entry == workload.program.entry
        original = {i.address: i for i in workload.program.instructions()}
        for inst in loaded.program.instructions():
            assert original[inst.address] == inst

    def test_behaviors_roundtrip(self, workload):
        loaded = _round_trip(workload)
        assert loaded.behaviors == workload.behaviors

    def test_loaded_workload_walks(self, workload):
        loaded = _round_trip(workload)
        walk = loaded.trace(500, seed=1)
        walk.validate()
        assert walk.records == workload.trace(500, seed=1).records


class TestErrors:
    def test_wrong_kind(self, workload):
        data = _workload_to_dict(workload)
        pc = next(iter(data["behaviors"]))
        data["behaviors"][pc] = {"kind": "nonsense"}
        with pytest.raises(WorkloadError, match="unknown behavior kind"):
            _workload_from_dict(data)
