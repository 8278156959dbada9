"""Deterministic chaos harness: prove recovery, don't assert it.

Simulation results are deterministic functions of their specs, which gives
fault tolerance a rare luxury: recovery correctness is *checkable by
equality*.  ``run_chaos`` runs the same sweep twice —

1. a **fault-free reference** run, producing a result store;
2. a **chaos** run in a fresh directory, under a seeded schedule of faults:

   - ``kill``   — worker SIGKILLs itself mid-job (process death);
   - ``hang``   — the job sleeps past the pool deadline (livelock);
   - ``freeze`` — the worker suppresses heartbeats and stalls (silent
     freeze, caught by the heartbeat monitor, not the deadline);
   - ``crash``  — an in-process exception (the classic transient fault);
   - ``tear``   — a crash mid-persist: the checkpoint journal's trailing
     record is physically truncated mid-line *and* the matching store
     object is deleted;
   - ``flip``   — one bit flipped inside a stored record (bit rot).

   File-level faults are applied after the first service incarnation exits,
   then a second incarnation starts on the same directories — exercising
   journal tail recovery, store corruption quarantine, journal-healing and
   recomputation — and re-submits every spec.

The harness then asserts the chaos store is **byte-identical** to the
reference store (canonical records make equality meaningful) and that every
injected fault produced the matching recovery telemetry.  A fault the
service survived by *silently wrong* data cannot pass this check.

Everything is derived from one seed: fault victims, worker jitter, and the
simulations themselves, so a failing chaos run is replayable exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..common.errors import ChaosError
from ..common.hashing import derive_stream_seed
from ..runner.job import JobSpec
from .server import SimulationService
from .store import ResultStore
from .supervisor import PoolConfig

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ChaosSpec:
    """How many faults of each kind the schedule injects."""

    kills: int = 1
    hangs: int = 1
    freezes: int = 1
    crashes: int = 1
    tears: int = 1       # 0 or 1: there is one journal tail to tear
    flips: int = 1

    def __post_init__(self) -> None:
        for name in ("kills", "hangs", "freezes", "crashes", "tears",
                     "flips"):
            if getattr(self, name) < 0:
                raise ChaosError(f"{name} must be >= 0")
        if self.tears > 1:
            raise ChaosError(
                "tears must be 0 or 1: a journal has one trailing record "
                "to tear per service incarnation")

    @property
    def process_faults(self) -> int:
        return self.kills + self.hangs + self.freezes + self.crashes


@dataclass
class ChaosReport:
    """What was injected, what recovered, and whether the states match."""

    jobs: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    worker_faults: Dict[str, List[str]] = field(default_factory=dict)
    recovered_events: Dict[str, int] = field(default_factory=dict)
    quarantined: List[str] = field(default_factory=list)
    store_diff: List[str] = field(default_factory=list)
    missing_recoveries: List[str] = field(default_factory=list)
    equivalent: bool = False

    @property
    def ok(self) -> bool:
        return self.equivalent and not self.quarantined \
            and not self.missing_recoveries

    def describe(self) -> str:
        lines = [f"chaos: {self.jobs} job(s) under "
                 f"{sum(self.injected.values())} injected fault(s)"]
        for kind in sorted(self.injected):
            victims = ", ".join(self.worker_faults.get(kind, [])) or "-"
            lines.append(f"  injected {kind:<7s} x{self.injected[kind]}"
                         f"  [{victims}]")
        for kind in sorted(self.recovered_events):
            lines.append(f"  observed {kind} x"
                         f"{self.recovered_events[kind]}")
        if self.quarantined:
            lines.append("  QUARANTINED (jobs lost despite retries): "
                         + ", ".join(self.quarantined))
        for missing in self.missing_recoveries:
            lines.append(f"  MISSING RECOVERY: {missing}")
        if self.store_diff:
            lines.append("  STORE DIVERGENCE (chaos vs fault-free):")
            for entry in self.store_diff:
                lines.append(f"    {entry}")
        lines.append("  result stores are "
                     + ("byte-identical: recovery is lossless"
                        if self.equivalent else "DIFFERENT: recovery lost "
                        "or corrupted data"))
        return "\n".join(lines)


def build_worker_faults(keys: Sequence[str], seed: int, spec: ChaosSpec,
                        deadline_seconds: float,
                        ) -> Dict[str, List[Optional[Dict]]]:
    """Assign process-level faults to deterministic victims.

    Each requested fault lands on a job's next unfaulted leading attempt,
    round-robin over a seeded shuffle, so any number of faults ≤
    ``jobs × retries`` can be scheduled while every job still has a
    fault-free attempt left to succeed on.
    """
    if not keys:
        raise ChaosError("cannot build a chaos schedule with no jobs")
    rng = random.Random(derive_stream_seed(seed, "chaos/schedule"))
    order = sorted(keys)
    rng.shuffle(order)
    plans: Dict[str, List[Optional[Dict]]] = {}
    directives: List[Dict] = []
    directives += [{"kill": True}] * spec.kills
    directives += [{"hang": deadline_seconds * 3}] * spec.hangs
    directives += [{"freeze": deadline_seconds * 10}] * spec.freezes
    directives += [{"crash": True}] * spec.crashes
    rng.shuffle(directives)
    for index, directive in enumerate(directives):
        victim = order[index % len(order)]
        plans.setdefault(victim, []).append(directive)
    return plans


def _tear_journal_tail(journal_path: Path, store: ResultStore) -> List[str]:
    """Simulate a crash mid-persist: torn journal line + lost store object.

    Returns the torn keys (for the report); empty if there is no journal.
    """
    if not journal_path.exists():
        raise ChaosError(f"no journal to tear at {journal_path}")
    raw = journal_path.read_bytes()
    lines = [line for line in raw.split(b"\n") if line.strip()]
    if not lines:
        raise ChaosError(f"journal {journal_path} is empty; nothing to tear")
    last = lines[-1]
    # Identify the victim key before mutilating the record.
    import json as _json
    victim_key = _json.loads(
        _json.loads(last.decode("utf-8"))["body"])["job_id"]
    keep = raw[:raw.rindex(last)]
    torn = last[:max(1, len(last) * 2 // 3)]     # cut mid-record
    journal_path.write_bytes(keep + torn)
    object_path = store.object_path(victim_key)
    if object_path.exists():
        object_path.unlink()       # the store write never landed either
    return [victim_key]


def _flip_store_bit(store: ResultStore, key: str, seed: int) -> None:
    """Flip one payload bit inside a stored record (deterministic position).

    The flip lands *inside the checksummed body*, past the envelope
    prelude, so it models silent data corruption rather than truncation.
    """
    path = store.object_path(key)
    data = bytearray(path.read_bytes())
    rng = random.Random(derive_stream_seed(seed, f"chaos/flip/{key}"))
    # Skip the envelope prefix {"body": "... so the flip hits record data.
    start = min(16, len(data) - 1)
    position = rng.randrange(start, len(data))
    data[position] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))


def diff_stores(reference: ResultStore, subject: ResultStore) -> List[str]:
    """Human-readable byte-level differences between two stores."""
    left = reference.snapshot()
    right = subject.snapshot()
    differences: List[str] = []
    for name in sorted(set(left) | set(right)):
        if name not in right:
            differences.append(f"missing from chaos store: {name}")
        elif name not in left:
            differences.append(f"extra in chaos store: {name}")
        elif left[name] != right[name]:
            differences.append(f"bytes differ: {name}")
    return differences


def run_chaos(specs: Sequence[JobSpec], workdir: PathLike,
              chaos: Optional[ChaosSpec] = None, seed: int = 7,
              workers: int = 2, retries: Optional[int] = None,
              deadline_seconds: float = 5.0,
              heartbeat_timeout_seconds: float = 1.0) -> ChaosReport:
    """Run the sweep clean and under chaos; verify byte-equivalence.

    ``retries`` defaults to enough attempts for the worst-faulted job to
    still reach its fault-free attempt (schedule depth + 1 margin).
    """
    chaos = chaos or ChaosSpec()
    if not specs:
        raise ChaosError("chaos needs at least one job spec")
    workdir = Path(workdir)
    ref_dir = workdir / "reference"
    chaos_dir = workdir / "chaos"

    keys = []
    seen = set()
    for spec in specs:
        if spec.key not in seen:
            seen.add(spec.key)
            keys.append(spec.key)

    worker_faults = build_worker_faults(keys, seed, chaos, deadline_seconds)
    max_stacked = max((len(plan) for plan in worker_faults.values()),
                      default=0)
    if retries is None:
        retries = max_stacked + 1
    elif retries < max_stacked:
        raise ChaosError(
            f"retries={retries} cannot absorb {max_stacked} stacked "
            "fault(s) on one job; raise retries or lower fault counts")

    def pool_config() -> PoolConfig:
        return PoolConfig(
            workers=workers, retries=retries,
            deadline_seconds=deadline_seconds,
            heartbeat_timeout_seconds=heartbeat_timeout_seconds,
            seed=seed)

    report = ChaosReport(jobs=len(keys))
    report.injected = {
        "kill": chaos.kills, "hang": chaos.hangs, "freeze": chaos.freezes,
        "crash": chaos.crashes, "tear": chaos.tears, "flip": chaos.flips}
    for key, plan in sorted(worker_faults.items()):
        for directive in plan:
            kind = next(iter(directive))
            report.worker_faults.setdefault(
                kind, []).append(key[:12])

    # ---- 1. fault-free reference ------------------------------------------
    with SimulationService(ref_dir / "store",
                           checkpoint_dir=ref_dir / "checkpoint",
                           pool_config=pool_config()) as reference_service:
        reference_batch = reference_service.execute(specs)
    if not reference_batch.ok:
        raise ChaosError(
            "fault-free reference run failed; fix the sweep before "
            "injecting faults: "
            + "; ".join(f"{key}: {errors[-1]}"
                        for key, errors in
                        sorted(reference_batch.failures.items())))

    # ---- 2. chaos run: process-level faults -------------------------------
    events: Dict[str, int] = {}

    def harvest(service: SimulationService) -> None:
        for kind, count in service.hub.summary().items():
            events[kind] = events.get(kind, 0) + count

    chaos_service = SimulationService(
        chaos_dir / "store", checkpoint_dir=chaos_dir / "checkpoint",
        pool_config=pool_config(), faults=worker_faults)
    with chaos_service:
        phase_one = chaos_service.execute(specs)
    harvest(chaos_service)
    report.quarantined.extend(sorted(phase_one.failures))

    # ---- 3. file-level faults between service incarnations ----------------
    journal_path = chaos_dir / "checkpoint" / "journal.jsonl"
    chaos_store = ResultStore(chaos_dir / "store")
    if chaos.tears:
        _tear_journal_tail(journal_path, chaos_store)
    flip_candidates = [key for key in sorted(chaos_store.keys())]
    rng = random.Random(derive_stream_seed(seed, "chaos/flips"))
    flip_victims = rng.sample(flip_candidates,
                              min(chaos.flips, len(flip_candidates)))
    for key in flip_victims:
        _flip_store_bit(chaos_store, key, seed)

    # ---- 4. recovery incarnation ------------------------------------------
    recovery_service = SimulationService(
        chaos_dir / "store", checkpoint_dir=chaos_dir / "checkpoint",
        pool_config=pool_config())
    with recovery_service:
        phase_two = recovery_service.execute(specs)
    harvest(recovery_service)
    report.quarantined.extend(sorted(phase_two.failures))
    report.recovered_events = dict(sorted(events.items()))

    # ---- 5. verify --------------------------------------------------------
    reference_store = ResultStore(ref_dir / "store")
    report.store_diff = diff_stores(reference_store,
                                    ResultStore(chaos_dir / "store"))
    report.equivalent = not report.store_diff and not report.quarantined \
        and set(phase_two.results) == set(keys)

    expectations = [
        ("kill", chaos.kills, "worker_restart"),
        ("hang", chaos.hangs, "worker_restart"),
        ("freeze", chaos.freezes, "worker_restart"),
        ("tear", chaos.tears, "checkpoint_recovered"),
        ("flip", len(flip_victims), "store_corrupt"),
    ]
    for fault, count, event in expectations:
        if count and events.get(event, 0) == 0:
            report.missing_recoveries.append(
                f"injected {count} {fault} fault(s) but no {event} event "
                "was observed — the fault did not exercise recovery")
    return report
