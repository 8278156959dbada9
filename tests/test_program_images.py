"""Program-image pins: one SHA-256 per Table II workload.

The golden result snapshots (tests/golden/*_<design>.json) pin simulation
results for only five workloads.  These digests pin the generated program
image of all thirteen: every static instruction's fields in program order,
every branch behavior, the entry PC, and a short walk of the image.  A
change to the image builder that alters a single random draw, on any
workload, fails here with that workload's name.

Regenerating after an *intended* change to program generation::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_program_images.py

then review the diff of ``tests/golden/program_images.json``.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.isa.instruction import X86Instruction
from repro.workloads.suite import WORKLOAD_NAMES, get_workload

IMAGES_PATH = Path(__file__).parent / "golden" / "program_images.json"

#: Generation seed of the pinned images (the suite default) and the walk
#: that exercises their behaviors.
GEN_SEED = 1
WALK_SEED = 7
WALK_INSTRUCTIONS = 10_000


def _field(value) -> str:
    # Enums by value so the digest does not depend on their repr; floats by
    # repr, which round-trips exactly.
    return repr(getattr(value, "value", value))


def image_digest(name: str) -> str:
    """SHA-256 over one workload's program image, behaviors, entry and walk."""
    workload = get_workload(name, seed=GEN_SEED, cache=False)
    program = workload.program
    inst_fields = [f.name for f in dataclasses.fields(X86Instruction)]
    digest = hashlib.sha256()

    def line(*parts) -> None:
        digest.update(" ".join(parts).encode())
        digest.update(b"\n")

    for function in program.functions:
        line("function", function.name)
        for block in function.blocks:
            line("block")
            for inst in block.instructions:
                line(*(_field(getattr(inst, f)) for f in inst_fields))
    for pc in sorted(workload.behaviors):
        behavior = workload.behaviors[pc]
        line("behavior", str(pc), type(behavior).__name__,
             repr(dataclasses.astuple(behavior)))
    line("entry", str(program.entry))
    for record in workload.trace(WALK_INSTRUCTIONS, seed=WALK_SEED).records:
        line(str(record.pc), str(record.next_pc), str(record.mem_addr))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        digests = {name: image_digest(name) for name in WORKLOAD_NAMES}
        IMAGES_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    return json.loads(IMAGES_PATH.read_text())


def test_every_table2_workload_is_pinned(pinned):
    assert sorted(pinned) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_program_image_unchanged(pinned, name):
    assert image_digest(name) == pinned[name], (
        f"{name}: generated program image changed (gen seed {GEN_SEED}, "
        f"walk seed {WALK_SEED}); regenerate only for an intended change")
