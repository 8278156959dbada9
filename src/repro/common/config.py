"""Configuration dataclasses for the simulated processor.

Defaults reproduce Table I of the paper:

- 3 GHz x86 core, dispatch width 6, retire width 8, 160-entry issue queue,
  256-entry ROB, 120-uop uop queue.
- 4-wide, 3-cycle-latency decoder.
- Uop cache: 32 sets x 8 ways, true LRU, 8 uops/cycle bandwidth, 56-bit uops,
  max 8 uops per entry, 32-bit imm/disp operands, max 4 imm/disp and max 4
  microcoded instructions per entry (2K uops total in the baseline).
- TAGE branch predictor, 2 branches per BTB entry, 2-level BTB.
- 32KB/8-way L1-I (64B lines, LRU, branch-prediction-directed prefetch,
  32B/cycle), 32KB/4-way L1-D, 512KB/8-way private unified L2, 2MB/16-way
  shared L3 with RRIP replacement.

Every class validates itself in ``__post_init__``; an invalid configuration
raises :class:`~repro.common.errors.ConfigError` at construction time rather
than corrupting a simulation later.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from .errors import ConfigError


class CompactionPolicy(enum.Enum):
    """Uop cache line allocation policy (Section V of the paper)."""

    NONE = "none"          # baseline: one entry per line
    RAC = "rac"            # replacement-aware compaction
    PWAC = "pwac"          # prediction-window-aware compaction (falls back to RAC)
    F_PWAC = "f-pwac"      # forced PWAC (falls back to PWAC, then RAC)


class ReplacementKind(enum.Enum):
    LRU = "lru"
    TREE_PLRU = "tree-plru"
    RRIP = "rrip"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CoreConfig:
    """Back-end core parameters (Table I, "Core")."""

    frequency_ghz: float = 3.0
    dispatch_width: int = 6          # instructions (uops) dispatched per cycle
    retire_width: int = 8
    issue_queue_entries: int = 160
    rob_entries: int = 256
    uop_queue_entries: int = 120

    def __post_init__(self) -> None:
        _require(self.frequency_ghz > 0, "core frequency must be positive")
        _require(self.dispatch_width >= 1, "dispatch width must be >= 1")
        _require(self.retire_width >= 1, "retire width must be >= 1")
        _require(self.rob_entries >= self.dispatch_width,
                 "ROB must hold at least one dispatch group")
        _require(self.uop_queue_entries >= 1, "uop queue must be non-empty")
        _require(self.issue_queue_entries >= 1, "issue queue must be non-empty")


@dataclass(frozen=True)
class DecoderConfig:
    """x86 decode pipeline parameters (Table I, "Decoder")."""

    latency_cycles: int = 3
    bandwidth_insts_per_cycle: int = 4

    def __post_init__(self) -> None:
        _require(self.latency_cycles >= 1, "decoder latency must be >= 1 cycle")
        _require(self.bandwidth_insts_per_cycle >= 1,
                 "decoder bandwidth must be >= 1 inst/cycle")


@dataclass(frozen=True)
class UopCacheConfig:
    """Micro-op cache geometry and entry-construction limits (Table I)."""

    num_sets: int = 32
    associativity: int = 8
    line_bytes: int = 64
    uop_bits: int = 56
    imm_disp_bytes: int = 4           # 32-bit immediate/displacement slots
    metadata_bytes: int = 2           # per-line ctr/error-protection field
    max_uops_per_entry: int = 8
    max_imm_disp_per_entry: int = 4
    max_ucoded_per_entry: int = 4
    bandwidth_uops_per_cycle: int = 8
    fetch_latency_cycles: int = 2     # OC hit -> uop queue
    # Optimizations under study:
    clasp: bool = False               # allow entries to span the I-cache line boundary
    clasp_max_lines: int = 2          # max contiguous I-cache lines fused per entry
    compaction: CompactionPolicy = CompactionPolicy.NONE
    max_entries_per_line: int = 2     # only meaningful when compaction != NONE

    def __post_init__(self) -> None:
        _require(self.num_sets >= 1 and (self.num_sets & (self.num_sets - 1)) == 0,
                 "uop cache sets must be a power of two")
        _require(self.associativity >= 1, "uop cache needs >= 1 way")
        _require(self.line_bytes >= 16, "uop cache line too small")
        _require(self.uop_bits % 8 == 0, "uop size must be a whole number of bytes")
        _require(self.uop_bytes * 1 + self.metadata_bytes <= self.line_bytes,
                 "a line must fit at least one uop plus metadata")
        _require(self.max_uops_per_entry >= 1, "entries must allow >= 1 uop")
        _require(self.max_imm_disp_per_entry >= 0, "imm/disp limit must be >= 0")
        _require(self.max_ucoded_per_entry >= 0, "ucode limit must be >= 0")
        _require(self.bandwidth_uops_per_cycle >= 1, "OC bandwidth must be >= 1")
        _require(self.clasp_max_lines >= 2,
                 "CLASP must allow at least two I-cache lines")
        _require(self.max_entries_per_line >= 1,
                 "compaction needs >= 1 entry per line")

    @property
    def uop_bytes(self) -> int:
        return self.uop_bits // 8

    @property
    def usable_line_bytes(self) -> int:
        """Line bytes available for uops + imm/disp after metadata."""
        return self.line_bytes - self.metadata_bytes

    @property
    def capacity_uops(self) -> int:
        """Nominal capacity in uops (sets x ways x max uops per entry)."""
        return self.num_sets * self.associativity * self.max_uops_per_entry

    def with_capacity_uops(self, capacity: int) -> "UopCacheConfig":
        """Return a copy scaled (by set count) to ``capacity`` nominal uops."""
        per_line = self.associativity * self.max_uops_per_entry
        if capacity % per_line:
            raise ConfigError(
                f"capacity {capacity} not divisible by ways*uops_per_entry={per_line}")
        return replace(self, num_sets=capacity // per_line)


@dataclass(frozen=True)
class LoopCacheConfig:
    """Loop buffer that captures tiny loops, bypassing both IC and OC paths."""

    enabled: bool = False
    capacity_uops: int = 32
    min_iterations_to_capture: int = 3

    def __post_init__(self) -> None:
        _require(self.capacity_uops >= 1, "loop cache capacity must be >= 1 uop")
        _require(self.min_iterations_to_capture >= 1,
                 "loop capture threshold must be >= 1")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """TAGE + BTB front-end prediction resources (Table I)."""

    # TAGE
    num_tagged_tables: int = 6
    table_entries_log2: int = 13
    tag_bits: int = 9
    min_history: int = 4
    max_history: int = 128
    base_entries_log2: int = 14
    use_alt_threshold: int = 8
    # BTB
    btb_entries: int = 2048
    btb_branches_per_entry: int = 2
    btb_levels: int = 2
    # RAS
    ras_entries: int = 64
    # Prediction window construction
    max_not_taken_branches_per_pw: int = 2
    #: Limit-study switch: every branch predicted perfectly (no mispredicts,
    #: no BTB resteers).  Isolates front-end supply effects.
    perfect: bool = False

    def __post_init__(self) -> None:
        _require(self.num_tagged_tables >= 1, "TAGE needs >= 1 tagged table")
        _require(self.min_history >= 1, "TAGE min history must be >= 1")
        _require(self.max_history > self.min_history,
                 "TAGE max history must exceed min history")
        _require(self.btb_entries >= 1, "BTB must be non-empty")
        _require(self.ras_entries >= 1, "RAS must be non-empty")
        _require(self.max_not_taken_branches_per_pw >= 1,
                 "PW must allow at least one not-taken branch")


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the conventional (instruction/data) cache hierarchy."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency_cycles: int = 4
    replacement: ReplacementKind = ReplacementKind.LRU

    def __post_init__(self) -> None:
        # Set-associative indexing shifts by log2(line_bytes); the PW
        # builder and the uop cache divide by it.  Only a power of two
        # makes the two agree on line boundaries.
        _require(self.line_bytes >= 1 and
                 self.line_bytes & (self.line_bytes - 1) == 0,
                 f"{self.name}: line size must be a power of two "
                 f"(got {self.line_bytes})")
        _require(self.size_bytes >= self.line_bytes, "cache smaller than one line")
        _require(self.size_bytes % (self.line_bytes * self.associativity) == 0,
                 f"{self.name}: size must be divisible by line*ways")
        num_sets = self.size_bytes // (self.line_bytes * self.associativity)
        _require(num_sets & (num_sets - 1) == 0,
                 f"{self.name}: set count must be a power of two")
        _require(self.hit_latency_cycles >= 1, "hit latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Three-level hierarchy plus DRAM (Table I)."""

    l1i: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(
        name="L1I", size_bytes=32 * 1024, associativity=8, hit_latency_cycles=2))
    l1d: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(
        name="L1D", size_bytes=32 * 1024, associativity=4, hit_latency_cycles=4))
    l2: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(
        name="L2", size_bytes=512 * 1024, associativity=8, hit_latency_cycles=12))
    l3: CacheLevelConfig = field(default_factory=lambda: CacheLevelConfig(
        name="L3", size_bytes=2 * 1024 * 1024, associativity=16,
        hit_latency_cycles=35, replacement=ReplacementKind.RRIP))
    dram_latency_cycles: int = 180
    icache_prefetch: bool = True

    def __post_init__(self) -> None:
        _require(self.dram_latency_cycles >= 1, "DRAM latency must be >= 1")


#: Event categories selectable in :class:`TelemetryConfig.events` (must match
#: ``repro.telemetry.events.EVENT_CATEGORIES``; duplicated here so config
#: stays import-light and validates without pulling in the telemetry package).
TELEMETRY_EVENT_CATEGORIES: Tuple[str, ...] = (
    "fetch", "uopcache", "loopcache", "interval", "service")


@dataclass(frozen=True)
class TelemetryConfig:
    """Structured event tracing (see :mod:`repro.telemetry`).

    Disabled by default: a disabled run constructs no hub at all, so the
    simulator's hot paths pay only a ``None`` test per serving action.
    """

    enabled: bool = False
    #: Event categories to record (subset of TELEMETRY_EVENT_CATEGORIES).
    events: Tuple[str, ...] = TELEMETRY_EVENT_CATEGORIES
    #: Width of the per-interval IPC/UPC sampling windows, in cycles.
    interval_cycles: int = 1024

    def __post_init__(self) -> None:
        _require(len(self.events) > 0,
                 "telemetry needs at least one event category")
        for category in self.events:
            _require(category in TELEMETRY_EVENT_CATEGORIES,
                     f"unknown telemetry event category {category!r} "
                     f"(valid: {', '.join(TELEMETRY_EVENT_CATEGORIES)})")
        _require(self.interval_cycles >= 1,
                 "telemetry interval must be >= 1 cycle")


@dataclass(frozen=True)
class PowerConfig:
    """Decoder energy model (normalized reporting, Section IV-A)."""

    decode_energy_per_inst: float = 1.0
    decoder_active_cycle_energy: float = 0.35
    decoder_idle_cycle_energy: float = 0.02

    def __post_init__(self) -> None:
        _require(self.decode_energy_per_inst > 0, "decode energy must be positive")
        _require(self.decoder_active_cycle_energy >= 0, "active energy must be >= 0")
        _require(self.decoder_idle_cycle_energy >= 0, "idle energy must be >= 0")


@dataclass(frozen=True)
class SimulatorConfig:
    """Top-level configuration tying together all structures."""

    core: CoreConfig = field(default_factory=CoreConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    uop_cache: UopCacheConfig = field(default_factory=UopCacheConfig)
    loop_cache: LoopCacheConfig = field(default_factory=LoopCacheConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    warmup_instructions: int = 0
    max_instructions: Optional[int] = None
    #: Counters-only serve loop: skips telemetry hooks and per-uop object
    #: churn while producing a bit-identical :class:`SimulationResult`
    #: (equivalence enforced by oracle, golden, and property tests).
    fast_mode: bool = False

    def __post_init__(self) -> None:
        _require(self.warmup_instructions >= 0, "warmup must be >= 0")
        if self.max_instructions is not None:
            _require(self.max_instructions > 0, "max_instructions must be positive")
        _require(not (self.fast_mode and self.telemetry.enabled),
                 "fast_mode is counters-only and cannot be combined with "
                 "telemetry (disable telemetry or run in normal mode)")

    def with_fast_mode(self, enabled: bool = True) -> "SimulatorConfig":
        """Copy with the counters-only fast serve loop toggled."""
        return replace(self, fast_mode=enabled)

    def with_uop_cache(self, **kwargs: Any) -> "SimulatorConfig":
        """Copy with uop-cache fields replaced (convenience for sweeps)."""
        return replace(self, uop_cache=replace(self.uop_cache, **kwargs))

    def with_capacity_uops(self, capacity: int) -> "SimulatorConfig":
        return replace(self, uop_cache=self.uop_cache.with_capacity_uops(capacity))


def baseline_config(capacity_uops: int = 2048) -> SimulatorConfig:
    """The paper's baseline: 2K-uop OC, no CLASP, no compaction."""
    return SimulatorConfig().with_capacity_uops(capacity_uops)


def clasp_config(capacity_uops: int = 2048) -> SimulatorConfig:
    """CLASP only (Section V-A)."""
    return baseline_config(capacity_uops).with_uop_cache(clasp=True)


def compaction_config(policy: CompactionPolicy,
                      capacity_uops: int = 2048,
                      max_entries_per_line: int = 2) -> SimulatorConfig:
    """CLASP + the given compaction policy (all paper compaction results enable CLASP)."""
    return baseline_config(capacity_uops).with_uop_cache(
        clasp=True, compaction=policy, max_entries_per_line=max_entries_per_line)


#: The paper's designs, in its presentation order (Figs. 15-22).
POLICY_LABELS: Tuple[str, ...] = ("baseline", "clasp", "rac", "pwac", "f-pwac")

_COMPACTION_POLICIES: Dict[str, CompactionPolicy] = {
    "rac": CompactionPolicy.RAC,
    "pwac": CompactionPolicy.PWAC,
    "f-pwac": CompactionPolicy.F_PWAC,
}


def policy_config(label: str, capacity_uops: int = 2048,
                  max_entries_per_line: int = 2) -> SimulatorConfig:
    """Map a paper design label to a simulator configuration.

    As in the paper, all compaction configurations also enable CLASP.
    """
    if label == "baseline":
        return baseline_config(capacity_uops)
    if label == "clasp":
        return clasp_config(capacity_uops)
    if label not in _COMPACTION_POLICIES:
        raise ValueError(f"unknown policy label {label!r}")
    return compaction_config(_COMPACTION_POLICIES[label], capacity_uops,
                             max_entries_per_line=max_entries_per_line)
