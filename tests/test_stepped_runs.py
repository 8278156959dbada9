"""Stepped-loop pins: SMT results and telemetry event streams per design.

The golden snapshots (tests/test_golden.py) pin single-thread runs.  Two
other users of the stepped serve loop have no snapshot of their own: SMT,
whose threads interleave over one shared uop cache and cache hierarchy,
and telemetry runs, whose event stream records every uop-cache probe,
fill, eviction and fetch action.  This file pins both with one SHA-256
per design:

- SMT: the canonical JSON of the per-thread ``SimulationResult.to_dict()``
  list, bm-x64 + redis at 2,500 instructions each, a 1,024-uop cache;
- telemetry: the JSONL event stream (every category) of a single-thread
  redis run at 4,000 instructions and a 512-uop cache.  Smaller runs fit
  the cache well enough that the rac, pwac and f-pwac streams coincide,
  which would leave the compaction policies unpinned.

Regenerating after an *intended* change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_stepped_runs.py

then review the diff of ``tests/golden/stepped_runs.json``.
"""

import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.common.config import TelemetryConfig
from repro.core.experiment import DEFAULT_SEED, policy_config, workload_trace
from repro.core.simulator import Simulator
from repro.core.smt import SmtSimulator
from repro.telemetry import JsonlSink

PINS_PATH = Path(__file__).parent / "golden" / "stepped_runs.json"

DESIGNS = ("baseline", "clasp", "rac", "pwac", "f-pwac")

SMT_WORKLOADS = ("bm-x64", "redis")
SMT_INSTRUCTIONS = 2500
SMT_CAPACITY_UOPS = 1024

TELEMETRY_WORKLOAD = "redis"
TELEMETRY_INSTRUCTIONS = 4000
TELEMETRY_CAPACITY_UOPS = 512


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def smt_digest(design: str) -> str:
    traces = [workload_trace(name, SMT_INSTRUCTIONS, seed=DEFAULT_SEED)
              for name in SMT_WORKLOADS]
    result = SmtSimulator(traces, policy_config(design, SMT_CAPACITY_UOPS),
                          design).run()
    return _sha256(json.dumps([thread.to_dict()
                               for thread in result.per_thread],
                              sort_keys=True))


def telemetry_digest(design: str) -> str:
    config = dataclasses.replace(
        policy_config(design, TELEMETRY_CAPACITY_UOPS),
        telemetry=TelemetryConfig(enabled=True))
    trace = workload_trace(TELEMETRY_WORKLOAD, TELEMETRY_INSTRUCTIONS,
                           seed=DEFAULT_SEED)
    sim = Simulator(trace, config, design)
    stream = io.StringIO()
    sim.telemetry.add_sink(JsonlSink(stream))
    sim.run()
    sim.telemetry.close()
    return _sha256(stream.getvalue())


@pytest.fixture(scope="module")
def pinned() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pins = {"smt": {design: smt_digest(design) for design in DESIGNS},
                "telemetry": {design: telemetry_digest(design)
                              for design in DESIGNS}}
        PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    return json.loads(PINS_PATH.read_text())


def test_every_design_is_pinned(pinned):
    assert sorted(pinned) == ["smt", "telemetry"]
    for digests in pinned.values():
        assert sorted(digests) == sorted(DESIGNS)


def test_pins_tell_the_designs_apart(pinned):
    """A pin shared by two designs would not notice one turning into the
    other."""
    for digests in pinned.values():
        assert len(set(digests.values())) == len(DESIGNS)


@pytest.mark.parametrize("design", DESIGNS)
def test_smt_run_unchanged(pinned, design):
    assert smt_digest(design) == pinned["smt"][design], (
        f"{design}: SMT per-thread results changed; regenerate only for an "
        "intended change")


@pytest.mark.parametrize("design", DESIGNS)
def test_telemetry_stream_unchanged(pinned, design):
    assert telemetry_digest(design) == pinned["telemetry"][design], (
        f"{design}: telemetry event stream changed; regenerate only for an "
        "intended change")
