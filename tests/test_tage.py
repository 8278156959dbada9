"""Unit tests for the TAGE direction predictor."""

import random

import pytest

from repro.branch.tage import TagePredictor, _update_signed, _update_unsigned
from repro.common.config import BranchPredictorConfig


def small_config(**kwargs):
    defaults = dict(num_tagged_tables=4, table_entries_log2=8, tag_bits=8,
                    min_history=2, max_history=32, base_entries_log2=10)
    defaults.update(kwargs)
    return BranchPredictorConfig(**defaults)


class TestCounters:
    def test_signed_saturates_up(self):
        assert _update_signed(3, True, -4, 3) == 3

    def test_signed_saturates_down(self):
        assert _update_signed(-4, False, -4, 3) == -4

    def test_unsigned_saturates(self):
        assert _update_unsigned(3, True) == 3
        assert _update_unsigned(0, False) == 0


class TestGeometry:
    def test_history_lengths_monotone(self):
        tage = TagePredictor(small_config())
        lengths = tage.history_lengths
        assert len(lengths) == 4
        assert all(a < b for a, b in zip(lengths, lengths[1:]))
        assert lengths[0] == 2
        assert lengths[-1] == 32

    def test_single_table(self):
        tage = TagePredictor(small_config(num_tagged_tables=1))
        assert tage.history_lengths == (2,)


class TestLearning:
    def test_always_taken_branch(self):
        tage = TagePredictor(small_config())
        pc = 0x4000
        for _ in range(50):
            tage.update(pc, True)
        assert tage.predict(pc) is True

    def test_always_not_taken_branch(self):
        tage = TagePredictor(small_config())
        pc = 0x4010
        for _ in range(50):
            tage.update(pc, False)
        assert tage.predict(pc) is False

    def test_alternating_pattern_learned(self):
        """T,NT,T,NT... requires one bit of history; TAGE must learn it."""
        tage = TagePredictor(small_config())
        pc = 0x4020
        outcome = True
        for _ in range(400):
            tage.update(pc, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(100):
            if tage.predict(pc) == outcome:
                hits += 1
            tage.update(pc, outcome)
            outcome = not outcome
        assert hits >= 95

    def test_loop_pattern_learned(self):
        """Taken 7 times then not-taken once (trip count 8)."""
        tage = TagePredictor(small_config())
        pc = 0x4030
        def outcomes():
            while True:
                for i in range(8):
                    yield i != 7
        gen = outcomes()
        for _ in range(800):
            tage.update(pc, next(gen))
        hits = total = 0
        for _ in range(160):
            outcome = next(gen)
            if tage.predict(pc) == outcome:
                hits += 1
            tage.update(pc, outcome)
            total += 1
        assert hits / total >= 0.9

    def test_random_branch_near_chance(self):
        tage = TagePredictor(small_config())
        rng = random.Random(42)
        pc = 0x4040
        hits = total = 0
        for _ in range(2000):
            outcome = rng.random() < 0.5
            if tage.predict(pc) == outcome:
                hits += 1
            tage.update(pc, outcome)
            total += 1
        assert 0.35 <= hits / total <= 0.65

    def test_update_returns_mispredict_flag(self):
        tage = TagePredictor(small_config())
        pc = 0x4050
        for _ in range(30):
            tage.update(pc, True)
        assert tage.update(pc, True) is False
        assert tage.update(pc, False) is True

    def test_many_branches_no_interference_catastrophe(self):
        """Hundreds of biased branches should all be predictable."""
        tage = TagePredictor(small_config())
        rng = random.Random(7)
        branches = {0x5000 + i * 16: (i % 2 == 0) for i in range(200)}
        for _ in range(30):
            for pc, direction in branches.items():
                tage.update(pc, direction)
        hits = sum(1 for pc, d in branches.items() if tage.predict(pc) == d)
        assert hits >= 190

