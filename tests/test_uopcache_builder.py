"""Unit tests for the accumulation buffer (entry construction sequencing)."""

import pytest

from repro.common.config import UopCacheConfig
from repro.common.errors import CacheError
from repro.uopcache.builder import AccumulationBuffer
from repro.uopcache.entry import EntryTermination

from helpers import make_uops


def make_buffer(**kwargs):
    return AccumulationBuffer(UopCacheConfig(**kwargs))


class TestSequentialAccumulation:
    def test_sequential_instructions_share_entry(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        assert buf.push(make_uops(0x1000, 2), taken=False) == ()
        assert buf.push(make_uops(0x1004, 2), taken=False) == ()
        entries = buf.flush()
        assert len(entries) == 1
        assert entries[0].num_uops == 4
        assert entries[0].start_pc == 0x1000
        assert entries[0].end_pc == 0x1008

    def test_taken_branch_seals(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        sealed = buf.push(make_uops(0x1000, 1), taken=True)
        assert len(sealed) == 1
        assert sealed[0].termination is EntryTermination.TAKEN_BRANCH
        assert not buf.accumulating

    def test_line_boundary_seals(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1038, 1, inst_length=8), taken=False)
        sealed = buf.push(make_uops(0x1040, 1), taken=False)
        assert len(sealed) == 1
        assert sealed[0].termination is EntryTermination.ICACHE_LINE_BOUNDARY
        assert sealed[0].end_pc == 0x1040

    def test_clasp_allows_two_lines(self):
        buf = AccumulationBuffer(UopCacheConfig(clasp=True))
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1038, 1, inst_length=8), taken=False)
        sealed = buf.push(make_uops(0x1040, 1), taken=False)
        assert sealed == ()
        entries = buf.flush()
        assert entries[0].spans_icache_lines(64)

    def test_clasp_caps_at_max_lines(self):
        # 16-byte "I-cache lines" keep the sequential chain short.
        buf = AccumulationBuffer(
            UopCacheConfig(clasp=True, clasp_max_lines=2),
            icache_line_bytes=16)
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1008, 1, inst_length=8), taken=False)   # line 0
        assert buf.push(make_uops(0x1010, 1, inst_length=8),
                        taken=False) == ()                           # line 1
        sealed = buf.push(make_uops(0x1018, 1, inst_length=8), taken=False)
        assert sealed == ()                                          # line 1
        sealed = buf.push(make_uops(0x1020, 1, inst_length=8), taken=False)
        assert len(sealed) == 1                                      # line 2
        assert sealed[0].termination is EntryTermination.ICACHE_LINE_BOUNDARY

    def test_capacity_violation_seals_then_continues(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        for i in range(4):
            assert buf.push(make_uops(0x1000 + 2 * i, 2, inst_length=2),
                            taken=False) == ()
        sealed = buf.push(make_uops(0x1008, 2, inst_length=2), taken=False)
        assert len(sealed) == 1
        assert sealed[0].termination is EntryTermination.MAX_UOPS
        assert sealed[0].num_uops == 8
        assert buf.accumulating

    def test_flush_seals_partial_as_pw_end(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1000, 1), taken=False)
        entries = buf.flush()
        assert entries[0].termination is EntryTermination.PW_END

    def test_flush_empty_returns_nothing(self):
        buf = make_buffer()
        assert buf.flush() == []

    def test_abandon_drops_partial(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1000, 1), taken=False)
        buf.abandon()
        assert buf.flush() == []


class TestDiscontinuity:
    def test_non_sequential_push_seals_first(self):
        """A push that does not continue sequentially must seal the open
        entry — the regression behind backward-spanning entries."""
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1030, 1, inst_length=4), taken=False)
        # Loop back into the SAME line at a lower address.
        sealed = buf.push(make_uops(0x1010, 1, inst_length=4), taken=False)
        assert len(sealed) == 1
        assert sealed[0].start_pc == 0x1030
        assert sealed[0].end_pc == 0x1034
        entries = buf.flush()
        assert entries[0].start_pc == 0x1010
        assert entries[0].end_pc > entries[0].start_pc

    def test_forward_gap_also_seals(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1000, 1, inst_length=4), taken=False)
        sealed = buf.push(make_uops(0x1020, 1, inst_length=4), taken=False)
        assert len(sealed) == 1


class TestPwIdentity:
    def test_entry_carries_pw_id_at_open(self):
        buf = make_buffer()
        buf.begin(pw_id=0xAAAA)
        buf.push(make_uops(0x1000, 1), taken=False)
        # PW changes mid-entry: the entry keeps the opening PW's id.
        buf.begin(pw_id=0xBBBB)
        buf.push(make_uops(0x1004, 1), taken=False)
        entries = buf.flush()
        assert entries[0].pw_id == 0xAAAA

    def test_new_entry_uses_latest_pw_id(self):
        buf = make_buffer()
        buf.begin(pw_id=0xAAAA)
        buf.push(make_uops(0x1000, 1), taken=True)
        buf.begin(pw_id=0xBBBB)
        buf.push(make_uops(0x2000, 1), taken=True)
        # second sealed entry must carry 0xBBBB
        # (push returns sealed entries immediately)


class TestBypass:
    def test_oversized_instruction_bypasses(self):
        cfg = UopCacheConfig()   # 8 uops max; 9-uop instruction can't fit
        buf = AccumulationBuffer(cfg)
        buf.begin(pw_id=0x1000)
        sealed = buf.push(make_uops(0x1000, 9), taken=False)
        assert sealed == ()
        assert buf.bypassed_uops == 9
        assert not buf.accumulating

    def test_bypass_seals_open_entry(self):
        buf = make_buffer()
        buf.begin(pw_id=0x1000)
        buf.push(make_uops(0x1000, 2, inst_length=4), taken=False)
        sealed = buf.push(make_uops(0x1004, 9, inst_length=4), taken=False)
        assert len(sealed) == 1
        assert sealed[0].num_uops == 2

    def test_empty_push_rejected(self):
        buf = make_buffer()
        with pytest.raises(CacheError):
            buf.push((), taken=False)
