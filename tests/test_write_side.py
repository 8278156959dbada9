"""Write-side state pins: one SHA-256 per run group and design.

The golden snapshots pin what a run *reports*, and a result only samples
the structures behind it: a hit ratio does not say which way an entry went
to, and a short run can end before a replacement slip reaches a counter.
These digests pin the write side's full final state after a fast-loop run
at 3,000 instructions, seed 7 and a 512-uop cache, under each of the five
designs.  The run groups are the three adversarial engines
(``adv-fragment``, ``adv-pwconflict`` and ``adv-smc``, over bm-x64) and a
synthetic bm-lla run: at this size the adversarial engines make no PWAC or
F-PWAC fill, so only bm-lla tells rac, pwac and f-pwac apart.  A digest
covers:

- the uop cache: every way's entries (start, end, PW id, uop count,
  termination) in line order, each set's LRU order, its counters, fill-kind
  and termination counts, and the entry-size histogram;
- the accumulation buffer's ``bypassed_uops``;
- every cache level (L1-I, L1-D, L2, L3): its tag array, its replacement
  state (LRU order, SRRIP values or tree-PLRU bits), hits and misses.

Regenerating after an *intended* change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_write_side.py

then review the diff of ``tests/golden/write_side.json``.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.caches.replacement import Srrip, TreePlru, TrueLru
from repro.core.experiment import policy_config, workload_trace
from repro.core.simulator import Simulator

PINS_PATH = Path(__file__).parent / "golden" / "write_side.json"

#: Run group name -> (workload, engine).
GROUPS = {
    "adv-fragment": ("bm-x64", "adv-fragment"),
    "adv-pwconflict": ("bm-x64", "adv-pwconflict"),
    "adv-smc": ("bm-x64", "adv-smc"),
    "bm-lla": ("bm-lla", "synthetic"),
}
DESIGNS = ("baseline", "clasp", "rac", "pwac", "f-pwac")
INSTRUCTIONS = 3000
SEED = 7
CAPACITY_UOPS = 512

_UOP_CACHE_COUNTERS = ("hits", "misses", "fills", "duplicate_fills",
                       "evicted_entries", "invalidated_entries",
                       "uops_delivered", "_spanning_fills")


def _replacement_state(policy) -> dict:
    if isinstance(policy, TrueLru):
        return {"lru": policy._order}
    if isinstance(policy, Srrip):
        return {"rrpv": policy._rrpv}
    if isinstance(policy, TreePlru):
        return {"plru": policy._bits}
    raise AssertionError(f"unpinned replacement policy {policy!r}")


def write_side_state(sim: Simulator) -> dict:
    """The uop cache, accumulator and cache levels' state as plain JSON."""
    oc = sim.uop_cache
    uop_cache = {
        "ways": [[[[entry.start_pc, entry.end_pc, entry.pw_id,
                    entry.num_uops, entry.termination.value]
                   for entry in line.entries]
                  for line in ways]
                 for ways in oc._sets],
        "lru": oc._lru._order,
        "counters": {name: getattr(oc, name) for name in _UOP_CACHE_COUNTERS},
        "fill_kinds": {kind.value: count
                       for kind, count in oc.fill_kind_counts.items()},
        "terminations": {reason.value: count
                         for reason, count in oc.termination_counts.items()},
        "entry_sizes": sorted(oc.entry_size_histogram.counts.items()),
    }
    hierarchy = sim.hierarchy
    levels = {
        name: {"tags": level._tags,
               "replacement": _replacement_state(level._policy),
               "hits": level.hits, "misses": level.misses}
        for name, level in (("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
                            ("l2", hierarchy.l2), ("l3", hierarchy.l3))}
    return {"uop_cache": uop_cache,
            "bypassed_uops": sim.accumulator.bypassed_uops,
            "levels": levels}


def run_fast(group: str, design: str) -> Simulator:
    """One fast-loop run of the pinned geometry; returns the simulator."""
    workload, engine = GROUPS[group]
    config = dataclasses.replace(policy_config(design, CAPACITY_UOPS),
                                 warmup_instructions=0).with_fast_mode()
    trace = workload_trace(workload, INSTRUCTIONS, seed=SEED, engine=engine)
    sim = Simulator(trace, config, design)
    sim.run()
    return sim


def state_digest(group: str, design: str) -> str:
    state = write_side_state(run_fast(group, design))
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pins = {group: {design: state_digest(group, design)
                        for design in DESIGNS}
                for group in GROUPS}
        PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    return json.loads(PINS_PATH.read_text())


def test_every_run_is_pinned(pinned):
    assert sorted(pinned) == sorted(GROUPS)
    for digests in pinned.values():
        assert sorted(digests) == sorted(DESIGNS)


def test_pins_tell_the_designs_apart(pinned):
    """A pin shared by two designs in every group would not notice one
    turning into the other."""
    rows = [tuple(digests[design] for digests in pinned.values())
            for design in DESIGNS]
    assert len(set(rows)) == len(DESIGNS)
    assert len(set(pinned["bm-lla"].values())) == len(DESIGNS)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_write_side_state_is_pinned(pinned, group, design):
    assert state_digest(group, design) == pinned[group][design], (
        f"{group}/{design}: the write side's final state changed. If the "
        "change is intended, regenerate with REPRO_REGEN_GOLDEN=1 and "
        "review the diff of tests/golden/write_side.json.")
