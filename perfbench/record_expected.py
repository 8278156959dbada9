"""Regenerate ``perfbench/expected.json``: result digests at the default
seed, full and quick scale, for every workload.

Run from the repository root after a change that is meant to alter
simulation results (and say so in its description)::

    PYTHONPATH=src python3 perfbench/record_expected.py

In-process workloads are keyed by sweep ``job_id``; service-mix by content
key, covering the hit pool and the miss specs of the first
``EXPECTED_ROUNDS`` rounds.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from child import (CLIENTS, CYCLES_PER_ROUND, EXPECTED_ROUNDS, HERE,
                   SCALE_DIVISORS, SIZES, WORKLOADS, digest,
                   in_process_workload, miss_specs, pool_specs)

SEED = 7


def service_digests(instructions: int) -> Dict[str, str]:
    from repro.service.protocol import JobSpec, execute_spec
    specs = pool_specs(instructions, SEED) + [
        spec for round_index in range(EXPECTED_ROUNDS)
        for client in range(CLIENTS) for cycle in range(CYCLES_PER_ROUND)
        for spec in miss_specs(instructions, SEED, round_index, client,
                               cycle)]
    digests = {}
    for spec_dict in specs:
        spec = JobSpec.from_dict(spec_dict)
        digests[spec.key] = digest(execute_spec(spec).to_dict())
    return digests


def main() -> None:
    digests: Dict[str, Dict[str, Any]] = {}
    for scale, divisor in SCALE_DIVISORS.items():
        digests[scale] = {
            name: in_process_workload(name, SIZES[name] // divisor, SEED)
            .run_unit(None).digests
            for name in WORKLOADS if name != "service-mix"}
        digests[scale]["service-mix"] = service_digests(
            SIZES["service-mix"] // divisor)
        print(f"{scale}: " + ", ".join(
            f"{name} {len(table)}" for name, table in digests[scale].items()))
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"seed": SEED, "digests": digests}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
