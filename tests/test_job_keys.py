"""Pinned content keys and sweep job ids (``tests/golden/job_keys.json``).

A spec's content key addresses the service's result store, and a job id
keys checkpoint journals and perfbench's expected digests.  Neither may
change when the job code is reorganized; a key changes only when
``KEY_VERSION`` is bumped on purpose.  Between them the pinned specs set
every spec field away from its default, name every design, and use one
engine with parameters and one with ``engine_params={}``.
"""

import json
from pathlib import Path

import pytest

from repro.runner.job import JobSpec, build_capacity_jobs, build_policy_jobs

GOLDEN = json.loads((Path(__file__).parent / "golden" / "job_keys.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["keys"],
                         ids=lambda case: case["key"][:12])
def test_content_key_is_pinned(case):
    spec = JobSpec(**case["spec"])
    assert spec.key == case["key"]
    assert JobSpec.from_dict(case["spec"]).key == case["key"]


@pytest.mark.parametrize("sweep", GOLDEN["job_ids"],
                         ids=lambda sweep: sweep["job_ids"][0])
def test_sweep_job_ids_are_pinned(sweep):
    engine = dict(engine=sweep.get("engine", "synthetic"),
                  engine_params=sweep.get("engine_params"))
    if sweep["sweep"] == "policy":
        jobs = build_policy_jobs(sweep["workloads"], sweep["designs"],
                                 2048, 2, 1000, **engine)
    else:
        jobs = build_capacity_jobs(sweep["workloads"], sweep["capacities"],
                                   1000, **engine)
    assert [job.job_id for job in jobs] == sweep["job_ids"]


def test_pinned_specs_cover_every_field_and_design():
    specs = [case["spec"] for case in GOLDEN["keys"]]
    defaults = JobSpec(workload="bm-x64").to_dict()
    for name, default in defaults.items():
        if name != "workload":
            assert any(name in spec and spec[name] != default
                       for spec in specs), name
    assert {spec.get("design", "baseline") for spec in specs} == \
        {"baseline", "clasp", "rac", "pwac", "f-pwac"}
    assert any(spec.get("engine_params") == {} for spec in specs)
    assert any(spec.get("engine_params") for spec in specs)
