"""Statistics helpers shared across the simulator and its analyses.

Components count in plain ``int`` attributes.  This module holds what
plain ints do not cover:

- :class:`Histogram` — integer-bucketed distribution with helpers for
  percentage breakdowns (used for e.g. entry-size distributions, Fig. 5).
- :func:`ratio`, :func:`geometric_mean`, :func:`arithmetic_mean` — the
  0-safe aggregation the metrics and figures are built from.
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from typing import Dict, Iterable, Mapping, Sequence, Tuple, cast

from .errors import ReproWarning


class Histogram:
    """An integer histogram with named-range bucketing helpers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[int, int] = defaultdict(int)

    def record(self, value: int, weight: int = 1) -> None:
        if weight < 0:
            raise ValueError("histogram weight must be non-negative")
        self._counts[int(value)] += weight

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def counts(self) -> Mapping[int, int]:
        return dict(self._counts)

    def mean(self) -> float:
        total = self.total
        if total == 0:
            return 0.0
        return sum(v * c for v, c in self._counts.items()) / total

    def fraction_in(self, low: int, high: int) -> float:
        """Fraction of samples with ``low <= value <= high``."""
        total = self.total
        if total == 0:
            return 0.0
        hits = sum(c for v, c in self._counts.items() if low <= v <= high)
        return hits / total

    def bucketed(self, edges: Sequence[Tuple[int, int]]) -> Dict[str, float]:
        """Return ``{"lo-hi": fraction}`` for each inclusive ``(lo, hi)`` edge pair."""
        return {f"{lo}-{hi}": self.fraction_in(lo, hi) for lo, hi in edges}

    def merge(self, other: "Histogram") -> None:
        for value, count in other._counts.items():
            self._counts[value] += count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.name == other.name and dict(self._counts) == dict(other._counts)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (keys stringified for JSON round-trips)."""
        return {"name": self.name,
                "counts": {str(value): count
                           for value, count in sorted(self._counts.items())}}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Histogram":
        hist = cls(cast(str, data["name"]))
        counts = cast(Mapping[str, int], data.get("counts", {}))
        for value, count in counts.items():
            hist._counts[int(value)] += int(count)
        return hist


def ratio(numerator: float, denominator: float) -> float:
    """A 0-safe division used throughout metric computation."""
    return numerator / denominator if denominator else 0.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of non-negative values (paper reports G. Mean UPC).

    Negative values are a caller bug and raise :class:`ValueError`.  A zero
    value is a legitimate degenerate measurement (e.g. a metric that never
    fired in a partial sweep) and makes the whole mean 0.0 — the mathematical
    limit of the product — rather than blowing up mid-aggregation.  Because a
    zero usually indicates a quarantined job or a dead counter upstream, the
    degenerate path emits a :class:`ReproWarning` instead of staying silent.
    """
    values = list(values)
    if not values:
        return 0.0
    if any(v < 0 for v in values):
        raise ValueError("geometric mean requires non-negative values")
    zeros = sum(1 for v in values if v == 0)
    if zeros:
        warnings.warn(
            f"geometric mean over {len(values)} value(s) containing {zeros} "
            "zero(s) is 0.0; zeros usually mean a metric never fired "
            "(quarantined job or dead counter?)",
            ReproWarning, stacklevel=2)
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
