"""Lightweight counters and samples for experiment harnesses."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Histogram:
    """Collects float samples; every statistic is computed on demand.
    The mean adds left to right (``sum`` rounds differently on 3.12+)."""

    samples: List[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        total = 0.0
        for value in self.samples:
            total += value
        return total / len(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        ordered = sorted(self.samples)
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1 - weight) + ordered[high] * weight


class BoundedSeries:
    """A time series capped at ``max_points`` by deterministic decimation.

    Appends are O(1) amortised; when the cap is hit, every second
    retained point is dropped and the sampling stride doubles, so the
    series always covers the full run at uniform spacing with between
    ``max_points / 2`` and ``max_points`` entries. Decimation depends
    only on the append sequence — never on time or randomness — so
    repeated runs retain identical points.
    """

    def __init__(self, max_points: int = 256) -> None:
        if max_points < 4:
            raise ValueError("max_points must be at least 4")
        self.max_points = max_points
        self._items: List = []
        self._stride = 1
        self._pending = 0
        #: Total points offered, including decimated ones (stat).
        self.offered = 0

    def append(self, item) -> None:
        self.offered += 1
        self._pending += 1
        if self._pending < self._stride:
            return
        self._pending = 0
        self._items.append(item)
        if len(self._items) >= self.max_points:
            # Keep odd positions: with the doubled stride, future
            # appends continue the same uniform spacing.
            self._items = self._items[1::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, index):
        return self._items[index]


@dataclass
class MetricsRegistry:
    """Named counters shared across a simulation."""

    counters: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)
