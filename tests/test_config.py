"""Unit tests for configuration validation and Table I defaults."""

import dataclasses

import pytest

from repro.common.config import (
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
    UopCacheConfig,
    baseline_config,
    clasp_config,
    compaction_config,
)
from repro.common.errors import ConfigError


class TestTableIDefaults:
    """The defaults must match the paper's Table I."""

    def test_core(self):
        core = CoreConfig()
        assert core.dispatch_width == 6
        assert core.retire_width == 8
        assert core.issue_queue_entries == 160
        assert core.rob_entries == 256
        assert core.uop_queue_entries == 120
        assert core.frequency_ghz == 3.0

    def test_decoder(self):
        dec = DecoderConfig()
        assert dec.latency_cycles == 3
        assert dec.bandwidth_insts_per_cycle == 4

    def test_uop_cache_geometry(self):
        oc = UopCacheConfig()
        assert oc.num_sets == 32
        assert oc.associativity == 8
        assert oc.uop_bits == 56
        assert oc.max_uops_per_entry == 8
        assert oc.max_imm_disp_per_entry == 4
        assert oc.max_ucoded_per_entry == 4
        assert oc.bandwidth_uops_per_cycle == 8
        # 32 sets x 8 ways x 8 uops = 2K uops, the paper's baseline.
        assert oc.capacity_uops == 2048

    def test_baseline_has_no_optimizations(self):
        oc = UopCacheConfig()
        assert not oc.clasp
        assert oc.compaction is CompactionPolicy.NONE

    def test_memory_hierarchy(self):
        mem = MemoryHierarchyConfig()
        assert mem.l1i.size_bytes == 32 * 1024
        assert mem.l1i.associativity == 8
        assert mem.l1d.associativity == 4
        assert mem.l2.size_bytes == 512 * 1024
        assert mem.l3.size_bytes == 2 * 1024 * 1024
        assert mem.l3.replacement is ReplacementKind.RRIP

    def test_l1i_set_count(self):
        assert MemoryHierarchyConfig().l1i.num_sets == 64


class TestUopCacheConfig:
    def test_uop_bytes(self):
        assert UopCacheConfig().uop_bytes == 7

    def test_usable_line_bytes(self):
        oc = UopCacheConfig()
        assert oc.usable_line_bytes == oc.line_bytes - oc.metadata_bytes

    def test_with_capacity_uops(self):
        oc = UopCacheConfig().with_capacity_uops(65536)
        assert oc.capacity_uops == 65536
        assert oc.num_sets == 1024
        assert oc.associativity == 8

    def test_with_capacity_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            UopCacheConfig().with_capacity_uops(100)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            UopCacheConfig(num_sets=33)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            UopCacheConfig(associativity=0)

    def test_rejects_clasp_one_line(self):
        with pytest.raises(ConfigError):
            UopCacheConfig(clasp_max_lines=1)


class TestCacheLevelConfig:
    def test_num_sets(self):
        level = CacheLevelConfig(name="x", size_bytes=32 * 1024, associativity=8)
        assert level.num_sets == 64

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="x", size_bytes=3 * 1024, associativity=8)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(name="x", size_bytes=1000, associativity=3)

    def test_rejects_non_pow2_line(self):
        # 64 sets x 8 ways of 48-byte lines: every other check passes, but
        # shift-based indexing would treat the lines as 32 bytes.
        with pytest.raises(ConfigError, match="L1I: line size"):
            CacheLevelConfig(name="L1I", size_bytes=48 * 8 * 64,
                             associativity=8, line_bytes=48)


class TestValidation:
    def test_core_rejects_zero_dispatch(self):
        with pytest.raises(ConfigError):
            CoreConfig(dispatch_width=0)

    def test_decoder_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            DecoderConfig(latency_cycles=0)

    def test_branch_rejects_bad_history(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(min_history=10, max_history=5)

    def test_power_rejects_zero_decode_energy(self):
        with pytest.raises(ConfigError):
            PowerConfig(decode_energy_per_inst=0)

    def test_loop_cache_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            LoopCacheConfig(capacity_uops=0)

    def test_simulator_rejects_negative_warmup(self):
        with pytest.raises(ConfigError):
            SimulatorConfig(warmup_instructions=-1)


class TestConfigFactories:
    def test_baseline_config_capacity(self):
        assert baseline_config(4096).uop_cache.capacity_uops == 4096

    def test_clasp_config(self):
        cfg = clasp_config()
        assert cfg.uop_cache.clasp
        assert cfg.uop_cache.compaction is CompactionPolicy.NONE

    def test_compaction_config_enables_clasp(self):
        cfg = compaction_config(CompactionPolicy.F_PWAC)
        assert cfg.uop_cache.clasp
        assert cfg.uop_cache.compaction is CompactionPolicy.F_PWAC
        assert cfg.uop_cache.max_entries_per_line == 2

    def test_compaction_config_max_three(self):
        cfg = compaction_config(CompactionPolicy.RAC, max_entries_per_line=3)
        assert cfg.uop_cache.max_entries_per_line == 3

    def test_with_uop_cache_copies(self):
        base = baseline_config()
        modified = base.with_uop_cache(clasp=True)
        assert modified.uop_cache.clasp
        assert not base.uop_cache.clasp

    def test_configs_frozen(self):
        cfg = baseline_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.warmup_instructions = 5
