"""Golden-run regression tests: fixed-seed result snapshots.

Each golden file is the full ``SimulationResult.to_dict()`` of one short,
deterministic run (fixed workload, design, length, seed).  Any behavioural
change in the simulator — intended or not — shows up as a field-level diff
here, with the first divergent counter named in the failure message.

Regenerating after an *intended* change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py

then review the diff of ``tests/golden/*.json`` like any other code change.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.core.experiment import DEFAULT_SEED, policy_config, workload_trace
from repro.core.simulator import Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (workload, design, instructions).  Short runs keep the suite fast while
#: still exercising fills, evictions, compaction and branch mispredicts.
GOLDEN_RUNS = [
    ("bm-x64", "baseline", 2500),
    ("bm-lla", "f-pwac", 2500),
    ("bm-pb", "clasp", 2500),
    ("redis", "rac", 2500),
    ("bm-ds", "pwac", 2500),
]

#: All designs, snapshotted once per new workload engine (one
#: representative engine per engine family: trace replay, phase-structured
#: generation, adversarial generation).  The replay engine's packed input
#: is produced at test time from the synthetic engine, so its goldens pin
#: the full pack -> unpack -> simulate path.
ENGINE_DESIGNS = ("baseline", "clasp", "rac", "pwac", "f-pwac")
ENGINE_GOLDEN_ENGINES = ("replay", "oscillating", "adv-fragment")
ENGINE_GOLDEN_RUNS = [(engine, design, 2500)
                      for engine in ENGINE_GOLDEN_ENGINES
                      for design in ENGINE_DESIGNS]


def _golden_path(workload: str, design: str) -> Path:
    return GOLDEN_DIR / f"{workload}_{design}.json"


def _engine_golden_path(workload: str, design: str, engine: str) -> Path:
    return GOLDEN_DIR / f"{workload}_{design}_{engine}.json"


def _run(workload: str, design: str, instructions: int) -> dict:
    config = dataclasses.replace(policy_config(design, 2048),
                                 warmup_instructions=0)
    trace = workload_trace(workload, instructions, seed=DEFAULT_SEED)
    return Simulator(trace, config, design).run().to_dict()


def _first_divergence(expected, actual, path=""):
    """Depth-first search for the first differing leaf; None if equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                return (where, "<absent in golden>", actual[key])
            if key not in actual:
                return (where, expected[key], "<absent in result>")
            found = _first_divergence(expected[key], actual[key], where)
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for index in range(max(len(expected), len(actual))):
            where = f"{path}[{index}]"
            if index >= len(expected):
                return (where, "<absent in golden>", actual[index])
            if index >= len(actual):
                return (where, expected[index], "<absent in result>")
            found = _first_divergence(expected[index], actual[index], where)
            if found:
                return found
        return None
    if expected != actual:
        return (path, expected, actual)
    return None


@pytest.mark.parametrize("workload,design,instructions", GOLDEN_RUNS,
                         ids=[f"{w}-{d}" for w, d, _ in GOLDEN_RUNS])
def test_golden_run(workload, design, instructions):
    path = _golden_path(workload, design)
    actual = _run(workload, design, instructions)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; run with REPRO_REGEN_GOLDEN=1 "
        "to create it")
    expected = json.loads(path.read_text())
    divergence = _first_divergence(expected, actual)
    if divergence:
        where, want, got = divergence
        pytest.fail(
            f"golden mismatch for {workload}/{design} at '{where}': "
            f"golden={want!r} result={got!r}\n"
            "If the simulator change is intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1 and review the JSON diff.")


@pytest.fixture(scope="module")
def packed_trace_path(tmp_path_factory):
    """A packed copy of the default synthetic bm-x64 trace, built once."""
    from repro.workloads.engine import create_engine
    from repro.workloads.tracefile import pack_trace

    trace = create_engine("synthetic", workload="bm-x64").build_trace(
        2500, DEFAULT_SEED)
    path = tmp_path_factory.mktemp("golden-replay") / "bm-x64.uoptrace"
    pack_trace(trace, path, provenance={"engine": "synthetic"})
    return path


@pytest.mark.parametrize("engine,design,instructions", ENGINE_GOLDEN_RUNS,
                         ids=[f"{e}-{d}" for e, d, _ in ENGINE_GOLDEN_RUNS])
def test_engine_golden_run(engine, design, instructions, packed_trace_path):
    workload = "bm-x64"
    engine_params = {"path": str(packed_trace_path)} \
        if engine == "replay" else {}
    config = dataclasses.replace(policy_config(design, 2048),
                                 warmup_instructions=0)
    trace = workload_trace(workload, instructions, seed=DEFAULT_SEED,
                           engine=engine, engine_params=engine_params)
    actual = Simulator(trace, config, design).run().to_dict()
    path = _engine_golden_path(workload, design, engine)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        if path.exists():
            pytest.skip(f"{path.name} already committed; goldens are "
                        "append-only (delete explicitly to rewrite)")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; run with REPRO_REGEN_GOLDEN=1 "
        "to create it")
    expected = json.loads(path.read_text())
    divergence = _first_divergence(expected, actual)
    if divergence:
        where, want, got = divergence
        pytest.fail(
            f"golden mismatch for {workload}/{design}@{engine} at "
            f"'{where}': golden={want!r} result={got!r}\n"
            "If the simulator change is intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1 and review the JSON diff.")


def test_golden_files_have_no_strays():
    """Every committed golden file corresponds to a configured run."""
    expected = {_golden_path(w, d).name for w, d, _ in GOLDEN_RUNS}
    expected |= {_engine_golden_path("bm-x64", d, e).name
                 for e, d, _ in ENGINE_GOLDEN_RUNS}
    expected.add("program_images.json")     # tests/test_program_images.py
    expected.add("stepped_runs.json")       # tests/test_stepped_runs.py
    expected.add("job_keys.json")           # tests/test_job_keys.py
    expected.add("write_side.json")         # tests/test_write_side.py
    present = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert present == expected
