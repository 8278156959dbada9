"""Shared infrastructure: errors, configuration, statistics helpers."""

from .config import (
    BranchPredictorConfig,
    CacheLevelConfig,
    CompactionPolicy,
    CoreConfig,
    DecoderConfig,
    LoopCacheConfig,
    MemoryHierarchyConfig,
    PowerConfig,
    ReplacementKind,
    SimulatorConfig,
    TelemetryConfig,
    UopCacheConfig,
    baseline_config,
    clasp_config,
    compaction_config,
)
from .errors import (
    CacheError,
    ConfigError,
    ReproError,
    ReproWarning,
    SimulationError,
    WorkloadError,
)
from .hashing import derive_stream_seed, splitmix64
from .statistics import Histogram, arithmetic_mean, geometric_mean, ratio

__all__ = [
    "BranchPredictorConfig",
    "CacheError",
    "CacheLevelConfig",
    "CompactionPolicy",
    "ConfigError",
    "CoreConfig",
    "DecoderConfig",
    "Histogram",
    "LoopCacheConfig",
    "MemoryHierarchyConfig",
    "PowerConfig",
    "ReplacementKind",
    "ReproError",
    "ReproWarning",
    "SimulationError",
    "SimulatorConfig",
    "TelemetryConfig",
    "UopCacheConfig",
    "WorkloadError",
    "arithmetic_mean",
    "baseline_config",
    "clasp_config",
    "compaction_config",
    "derive_stream_seed",
    "geometric_mean",
    "ratio",
    "splitmix64",
]
