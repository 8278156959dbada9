"""One spec, every path.

Serial and forked sweeps, the service's worker pool and ``repro run`` all
run a :class:`~repro.runner.job.JobSpec` through ``execute_job``, so each
path must give the same result byte for byte.  The capacity spec's label
(``OC_4K``) differs from its design (``baseline``), so the forked sweep
and the pool show that the label crosses a process boundary.
"""

import pytest

from repro.analysis.report import render_result
from repro.cli import main
from repro.common.integrity import canonical_json
from repro.runner import (
    RunnerConfig,
    SweepRunner,
    build_capacity_jobs,
    build_policy_jobs,
    execute_job,
)
from repro.service.supervisor import PoolConfig, WorkerPool

INSTRUCTIONS = 1500
WARMUP = 200

POLICY = build_policy_jobs(["bm-x64"], ("rac",), 2048, 2, INSTRUCTIONS,
                           warmup_instructions=WARMUP)[0]
CAPACITY = build_capacity_jobs(["bm-lla"], (4096,), INSTRUCTIONS,
                               warmup_instructions=WARMUP)[0]
SPECS = (POLICY, CAPACITY)


def _payloads(results):
    return [canonical_json(result.to_dict()) for result in results]


@pytest.fixture(scope="module")
def direct():
    return _payloads(execute_job(spec) for spec in SPECS)


def test_capacity_spec_is_the_labelled_baseline():
    assert (CAPACITY.design, CAPACITY.label) == ("baseline", "OC_4K")
    assert CAPACITY.job_id == "bm-lla/OC_4K"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runner_matches_execute_job(direct, jobs):
    results, report = SweepRunner(RunnerConfig(jobs=jobs)).run(SPECS)
    assert report.ok
    assert list(results) == [spec.job_id for spec in SPECS]
    assert _payloads(results.values()) == direct


def test_worker_pool_matches_execute_job(direct):
    with WorkerPool(PoolConfig(workers=2)) as pool:
        results, report = pool.run_batch(
            [(spec.key, spec) for spec in SPECS])
    assert report.ok
    assert _payloads(results[spec.key] for spec in SPECS) == direct


def test_repro_run_prints_the_same_result(capsys):
    assert main(["run", "bm-x64", "--design", "rac",
                 "--instructions", str(INSTRUCTIONS),
                 "--warmup", str(WARMUP)]) == 0
    assert capsys.readouterr().out == \
        render_result(execute_job(POLICY)) + "\n"
