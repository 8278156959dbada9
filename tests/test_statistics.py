"""Unit tests for the statistics helpers."""

import math
import warnings

import pytest

from repro.common.errors import ReproWarning
from repro.common.statistics import (
    Histogram,
    arithmetic_mean,
    geometric_mean,
    ratio,
)


class TestHistogram:
    def test_empty_total_and_mean(self):
        h = Histogram("h")
        assert h.total == 0
        assert h.mean() == 0.0

    def test_record_and_total(self):
        h = Histogram("h")
        h.record(3)
        h.record(3)
        h.record(7)
        assert h.total == 3
        assert h.counts == {3: 2, 7: 1}

    def test_weighted_record(self):
        h = Histogram("h")
        h.record(4, weight=10)
        assert h.total == 10

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h").record(1, weight=-1)

    def test_mean(self):
        h = Histogram("h")
        h.record(2)
        h.record(4)
        assert h.mean() == pytest.approx(3.0)

    def test_fraction_in_inclusive_bounds(self):
        h = Histogram("h")
        for v in (1, 19, 20, 39, 40, 64):
            h.record(v)
        assert h.fraction_in(1, 19) == pytest.approx(2 / 6)
        assert h.fraction_in(20, 39) == pytest.approx(2 / 6)
        assert h.fraction_in(40, 64) == pytest.approx(2 / 6)

    def test_fraction_in_empty(self):
        assert Histogram("h").fraction_in(0, 10) == 0.0

    def test_bucketed_keys(self):
        h = Histogram("h")
        h.record(5)
        buckets = h.bucketed([(1, 19), (20, 39)])
        assert set(buckets) == {"1-19", "20-39"}
        assert buckets["1-19"] == 1.0

    def test_merge(self):
        a, b = Histogram("a"), Histogram("b")
        a.record(1)
        b.record(1)
        b.record(2)
        a.merge(b)
        assert a.counts == {1: 2, 2: 1}


class TestHelpers:
    def test_ratio_zero_denominator(self):
        assert ratio(5, 0) == 0.0

    def test_ratio(self):
        assert ratio(1, 4) == 0.25

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_zero_value_is_zero(self):
        # Regression: a zero mid-aggregation used to raise ValueError and
        # kill the whole sweep report; it is the limit of the product.
        with pytest.warns(ReproWarning):
            assert geometric_mean([1.0, 0.0]) == 0.0
        with pytest.warns(ReproWarning):
            assert geometric_mean([0.0]) == 0.0

    def test_geometric_mean_zero_warning_names_count(self):
        # Zeros usually mean a metric never fired (quarantined job, dead
        # counter); the warning must say how many so the sweep log is
        # actionable.
        with pytest.warns(ReproWarning, match=r"2 zero\(s\)"):
            geometric_mean([0.0, 3.0, 0.0])

    def test_geometric_mean_zero_warning_message_under_w_error(self):
        # Under `-W error` (how CI and careful users run) the warning becomes
        # the raised exception, so its message *is* the diagnostic.  Pin the
        # full content: the count of values, the count of zeros, and the
        # probable-cause hint.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                    ReproWarning,
                    match=r"geometric mean over 3 value\(s\) containing "
                          r"1 zero\(s\) is 0\.0; zeros usually mean a metric "
                          r"never fired \(quarantined job or dead "
                          r"counter\?\)"):
                geometric_mean([2.0, 0.0, 8.0])

    def test_geometric_mean_positive_values_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_negative(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == pytest.approx(2.0)

    def test_arithmetic_mean_empty(self):
        assert arithmetic_mean([]) == 0.0
