"""Small statistics toolkit for experiment reporting.

The paper reports means with 1st/99th percentiles (Figs 11-12), binned
similarity histograms (Figs 6-7) and recall CDFs (Figs 8-10); the helpers
here compute exactly those summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "summarize",
    "Histogram",
    "DiscretePdf",
    "cdf_points",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean plus the percentile band the paper plots (1st and 99th), and
    the tail percentiles a latency table reads (50th, 95th, 99th)."""

    count: int
    mean: float
    p01: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def as_row(self) -> tuple[float, float, float]:
        """(1st percentile, mean, 99th percentile) — the paper's error bars."""
        return (self.p01, self.mean, self.p99)


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` over ``values``.

    Percentiles interpolate linearly.  An empty sample yields the
    all-zero ``count=0`` summary rather than raising: a run where every
    query times out must still render its report.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    p01, p50, p95, p99 = (float(np.percentile(arr, q)) for q in (1, 50, 95, 99))
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        p01=p01,
        p50=p50,
        p95=p95,
        p99=p99,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


@dataclass
class Histogram:
    """Fixed-bin histogram over [0, 1] used for similarity distributions.

    ``n_bins`` equal bins partition [0, 1]; the value 1.0 lands in the last
    bin.  Percentages are relative to the number of *observations added*,
    including any recorded misses, mirroring "percentage of total queried
    partitions" on the paper's y-axes.
    """

    n_bins: int = 10
    counts: list[int] = field(default_factory=list)
    misses: int = 0

    def __post_init__(self) -> None:
        if self.n_bins <= 0:
            raise ValueError("histogram needs at least one bin")
        if not self.counts:
            self.counts = [0] * self.n_bins

    def add(self, value: float) -> None:
        """Record an observation in [0, 1]."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"histogram value {value} outside [0, 1]")
        idx = min(int(value * self.n_bins), self.n_bins - 1)
        self.counts[idx] += 1

    def add_miss(self) -> None:
        """Record a query that found no match at all."""
        self.misses += 1

    @property
    def total(self) -> int:
        """Observations recorded, including misses."""
        return sum(self.counts) + self.misses

    def bin_edges(self) -> list[tuple[float, float]]:
        """The (low, high) edges of every bin."""
        step = 1.0 / self.n_bins
        return [(i * step, (i + 1) * step) for i in range(self.n_bins)]

    def percentages(self) -> list[float]:
        """Percentage of all observations falling in each bin."""
        total = self.total
        if total == 0:
            return [0.0] * self.n_bins
        return [100.0 * c / total for c in self.counts]

    def miss_percentage(self) -> float:
        """Percentage of observations that were misses."""
        total = self.total
        return 100.0 * self.misses / total if total else 0.0


@dataclass
class DiscretePdf:
    """Probability distribution over small non-negative integers (Fig 12b)."""

    counts: dict[int, int] = field(default_factory=dict)

    def add(self, value: int) -> None:
        """Record an integer observation (e.g. a hop count)."""
        if value < 0:
            raise ValueError("DiscretePdf values must be non-negative")
        self.counts[value] = self.counts.get(value, 0) + 1

    @property
    def total(self) -> int:
        """Number of observations recorded."""
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        """Map value -> empirical probability."""
        total = self.total
        if total == 0:
            return {}
        return {v: c / total for v, c in sorted(self.counts.items())}

    def mean(self) -> float:
        """Empirical mean of the distribution."""
        total = self.total
        if total == 0:
            raise ValueError("empty distribution has no mean")
        return sum(v * c for v, c in self.counts.items()) / total


def cdf_points(
    values: Sequence[float], grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Percentage of ``values`` >= g for each g in ``grid``.

    This is the paper's recall-plot convention: the x-axis runs from 1.0 down
    to 0.0 and the y-axis is "percentage of queries answered up to a given
    portion", i.e. with recall at least x.
    """
    arr = np.asarray(list(values), dtype=float)
    out: list[tuple[float, float]] = []
    for g in grid:
        if arr.size == 0:
            out.append((float(g), 0.0))
        else:
            out.append((float(g), float(100.0 * np.mean(arr >= g))))
    return out
