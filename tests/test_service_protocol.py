"""Tests for the job-submission protocol: spec validation and content keys."""

import dataclasses

import pytest

from repro.common.errors import ProtocolError
from repro.core import fastpath
from repro.core.experiment import policy_config, workload_trace
from repro.core.simulator import Simulator
from repro.service.protocol import KEY_VERSION, JobSpec, execute_spec

INSTRUCTIONS = 1500


def _spec(**overrides):
    base = dict(workload="bm-x64", design="clasp",
                num_instructions=INSTRUCTIONS, seed=7)
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpecValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            JobSpec(workload="nope")

    def test_unknown_design_rejected(self):
        with pytest.raises(ProtocolError, match="unknown design"):
            _spec(design="magic")

    @pytest.mark.parametrize("field", ["capacity_uops",
                                       "max_entries_per_line",
                                       "num_instructions"])
    def test_nonpositive_ints_rejected(self, field):
        with pytest.raises(ProtocolError, match="must be positive"):
            _spec(**{field: 0})

    def test_negative_warmup_rejected(self):
        with pytest.raises(ProtocolError, match="warmup"):
            _spec(warmup_instructions=-1)


class TestContentKey:
    def test_key_is_stable(self):
        assert _spec().key == _spec().key

    def test_key_depends_on_every_field(self):
        base = _spec()
        for change in (dict(workload="redis"), dict(design="pwac"),
                       dict(capacity_uops=4096),
                       dict(max_entries_per_line=3),
                       dict(num_instructions=2000),
                       dict(warmup_instructions=100), dict(seed=8)):
            assert _spec(**change).key != base.key, change

    def test_key_folds_in_version(self):
        assert _spec().canonical()["key_version"] == KEY_VERSION

    def test_key_ignores_submission_field_order(self):
        forward = JobSpec.from_dict(
            {"workload": "bm-x64", "design": "rac", "seed": 3})
        backward = JobSpec.from_dict(
            {"seed": 3, "design": "rac", "workload": "bm-x64"})
        assert forward.key == backward.key


class TestFromDict:
    def test_round_trip(self):
        spec = _spec()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_defaults_apply(self):
        spec = JobSpec.from_dict({"workload": "bm-x64"})
        assert spec.design == "baseline"
        assert spec.capacity_uops == 2048

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job spec field"):
            JobSpec.from_dict({"workload": "bm-x64", "sede": 3})

    def test_missing_workload_rejected(self):
        with pytest.raises(ProtocolError, match="workload"):
            JobSpec.from_dict({"design": "clasp"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            JobSpec.from_dict(["bm-x64"])

    def test_non_string_workload_rejected(self):
        with pytest.raises(ProtocolError, match="must be a string"):
            JobSpec.from_dict({"workload": 42})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            JobSpec.from_dict({"workload": "bm-x64", "seed": True})

    def test_non_int_count_rejected(self):
        with pytest.raises(ProtocolError, match="must be an integer"):
            JobSpec.from_dict({"workload": "bm-x64",
                               "num_instructions": "many"})


class TestEngineFields:
    def test_engine_params_normalize_to_sorted_pairs(self):
        spec = _spec(engine="oscillating",
                     engine_params={"segment_length": 500, "gen_seed": 2})
        assert spec.engine_params == (("gen_seed", 2),
                                      ("segment_length", 500))

    def test_spellings_of_same_params_share_a_key(self):
        a = _spec(engine="oscillating",
                  engine_params={"segment_length": 500, "gen_seed": 2})
        b = _spec(engine="oscillating",
                  engine_params=(("segment_length", 500), ("gen_seed", 2)))
        assert a.key == b.key

    def test_engine_changes_the_key(self):
        assert _spec().key != _spec(engine="adv-smc").key
        assert _spec(engine="adv-smc").key != \
            _spec(engine="adv-smc", engine_params={"lines": 4}).key

    def test_unknown_engine_rejected(self):
        with pytest.raises(ProtocolError, match="unknown workload engine"):
            _spec(engine="warp-drive")

    def test_bad_engine_params_rejected_at_submission(self):
        with pytest.raises(ProtocolError, match="unknown parameter"):
            _spec(engine="adv-smc", engine_params={"linez": 4})
        with pytest.raises(ProtocolError, match="must be int"):
            _spec(engine="adv-smc", engine_params={"lines": "six"})

    def test_from_dict_round_trips_engine_fields(self):
        spec = _spec(engine="adv-fragment",
                     engine_params={"num_blocks": 64})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key == spec.key

    def test_from_dict_rejects_non_object_engine_params(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            JobSpec.from_dict({"workload": "bm-x64",
                               "engine_params": [1, 2]})

    def test_from_dict_rejects_bad_engine_param_values(self):
        with pytest.raises(ProtocolError, match="string or number"):
            JobSpec.from_dict({"workload": "bm-x64", "engine": "adv-smc",
                               "engine_params": {"lines": None}})

    def test_default_engine_key_is_versioned_not_aliased(self):
        """A default-engine spec still hashes the engine fields (v2)."""
        spec = _spec()
        assert spec.canonical()["engine"] == "synthetic"
        assert spec.canonical()["key_version"] == KEY_VERSION


class TestExecuteSpec:
    def test_matches_direct_simulation(self):
        spec = _spec(warmup_instructions=300)
        config = dataclasses.replace(
            policy_config("clasp", 2048, 2), warmup_instructions=300)
        trace = workload_trace("bm-x64", INSTRUCTIONS, seed=7)
        direct = Simulator(trace, config, "clasp").run()
        assert execute_spec(spec) == direct

    def test_engine_spec_matches_direct_engine_simulation(self):
        spec = _spec(engine="adv-pwconflict",
                     engine_params={"num_functions": 16})
        config = policy_config("clasp", 2048, 2)
        trace = workload_trace("bm-x64", INSTRUCTIONS, seed=7,
                               engine="adv-pwconflict",
                               engine_params={"num_functions": 16})
        direct = Simulator(trace, config, "clasp").run()
        assert execute_spec(spec) == direct


class TestExecuteSpecFastMode:
    """Service jobs are counters-only, so execute_spec routes them through
    the fast serve loop; the stored payload must stay byte-identical."""

    def test_counters_only_job_stores_bit_identical_result(self):
        from repro.common.integrity import canonical_json

        spec = _spec(warmup_instructions=300)
        fast = execute_spec(spec)

        config = dataclasses.replace(
            policy_config("clasp", 2048, 2), warmup_instructions=300)
        assert not config.fast_mode      # the un-routed baseline
        trace = workload_trace("bm-x64", INSTRUCTIONS, seed=7)
        slow = Simulator(trace, config, "clasp", strict=True).run()

        assert canonical_json(fast.to_dict()) == \
            canonical_json(slow.to_dict())

    def test_views_outlive_a_switch_of_trace(self):
        # A worker may be handed specs of several workloads in turn, so a
        # view stays cached as long as its trace does.
        specs = [_spec(workload="bm-x64"), _spec(workload="bm-lla")]
        for spec in specs:
            execute_spec(spec)
        traces = [workload_trace(spec.workload, INSTRUCTIONS, seed=7)
                  for spec in specs]
        assert all(trace in fastpath._VIEW_CACHE for trace in traces)
