"""The query log: every result of a run, and everything reported from it.

One log serves both kinds of report.  The paper's figures read a warmed
suffix of the log (similarity histogram, recall values, hops, exact
hits); the event-driven experiments read all of it (per-phase latency
percentiles, fault tallies, mean recall), and a fault sweep keeps its
:meth:`QueryLog.tally` per cell.  The results themselves are
the engine's :class:`~repro.rpc.engine.TimedQueryResult`, whichever
transport produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from repro.errors import ConfigError
from repro.metrics.report import format_table
from repro.rpc.engine import TimedQueryResult
from repro.util.stats import Histogram, SummaryStats, summarize

__all__ = ["LogTally", "QueryLog", "QUERY_PHASES"]

#: The phases of one query, in execution order.
QUERY_PHASES = ("route", "match", "fetch", "store", "total")

Tally = TypeVar("Tally", bound="LogTally")


@dataclass(frozen=True)
class LogTally:
    """A whole log in numbers: its size, mean recall, total-latency
    percentiles and fault tallies."""

    queries: int
    mean_recall: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    chain_timeouts: int
    failovers: int
    degraded_queries: int
    partial_queries: int
    misses: int


@dataclass
class QueryLog:
    """An append-only log of query results with the paper's aggregations
    and a latency evaluation's."""

    results: list[TimedQueryResult] = field(default_factory=list)

    def add(self, result: TimedQueryResult) -> None:
        """Record one query result."""
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    # -- the paper's figures: a warmed suffix of the log ----------------

    def measured(self, warmup_fraction: float = 0.2) -> list[TimedQueryResult]:
        """Results after dropping the warmup prefix (paper: first 20%)."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError("warmup fraction must be within [0, 1)")
        cut = int(len(self.results) * warmup_fraction)
        return self.results[cut:]

    def similarity_histogram(
        self, warmup_fraction: float = 0.2, n_bins: int = 10
    ) -> Histogram:
        """The Figures 6-7 quantity: distribution of best-match Jaccard
        similarity over measured queries; queries with no match at all are
        recorded as misses."""
        histogram = Histogram(n_bins=n_bins)
        for result in self.measured(warmup_fraction):
            if result.found:
                histogram.add(result.similarity)
            else:
                histogram.add_miss()
        return histogram

    def recall_values(self, warmup_fraction: float = 0.2) -> list[float]:
        """Recall per measured query (0.0 when nothing matched)."""
        return [r.recall for r in self.measured(warmup_fraction)]

    def hop_values(self, warmup_fraction: float = 0.0) -> list[int]:
        """Overlay hops per measured query."""
        return [r.overlay_hops for r in self.measured(warmup_fraction)]

    def exact_fraction(self, warmup_fraction: float = 0.2) -> float:
        """Fraction of measured queries answered by an identical partition."""
        measured = self.measured(warmup_fraction)
        if not measured:
            return 0.0
        return sum(1 for r in measured if r.exact) / len(measured)

    # -- latency and faults: the whole log ------------------------------

    @property
    def chain_timeouts(self) -> int:
        """Lookup chains that exhausted every replica's budget."""
        return sum(r.timeouts for r in self.results)

    @property
    def failovers(self) -> int:
        """Lookup chains answered by a successor-list replica after the
        identifier's owner was unreachable."""
        return sum(r.failovers for r in self.results)

    @property
    def degraded_queries(self) -> int:
        """Queries answered from fewer than ``l`` replies."""
        return sum(1 for r in self.results if r.degraded)

    @property
    def partial_queries(self) -> int:
        """Queries a partial quorum answered early (a subset of degraded)."""
        return sum(1 for r in self.results if r.partial)

    @property
    def misses(self) -> int:
        """Queries that located no partition at all."""
        return sum(1 for r in self.results if not r.found)

    def phase_summary(self) -> dict[str, SummaryStats]:
        """Per-phase latency over every result; a phase with no samples
        yet summarizes as a ``count=0`` row."""
        results = self.results
        return {
            phase: summarize([getattr(r, f"{phase}_ms") for r in results])
            for phase in QUERY_PHASES
        }

    def mean_recall(self) -> float:
        """Mean recall over every result (0.0 when none recorded)."""
        return float(np.mean([r.recall for r in self.results])) if self.results else 0.0

    def tally(self, kind: type[Tally] = LogTally, **setting) -> Tally:
        """The log's :class:`LogTally`, built as ``kind`` (a subclass that
        adds the ``setting`` it was measured at, such as a sweep cell)."""
        total = summarize([r.total_ms for r in self.results])
        return kind(
            queries=len(self),
            mean_recall=self.mean_recall(),
            p50_ms=total.p50,
            p95_ms=total.p95,
            p99_ms=total.p99,
            chain_timeouts=self.chain_timeouts,
            failovers=self.failovers,
            degraded_queries=self.degraded_queries,
            partial_queries=self.partial_queries,
            misses=self.misses,
            **setting,
        )

    def report(self, title: str = "Query latency by phase") -> str:
        """Human-readable phase table plus the fault tallies."""
        summary = self.phase_summary()
        rows = [
            [
                phase,
                str(s.count),
                *(f"{v:.1f}" for v in (s.mean, s.p50, s.p95, s.p99, s.maximum)),
            ]
            for phase, s in summary.items()
        ]
        table = format_table(
            ["phase", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
            title=title,
        )
        # The partial tally only appears when quorum completion fired, so
        # reports from runs without the feature stay byte-identical.
        partial = self.partial_queries
        tail = (
            f"queries={len(self)}  chain timeouts={self.chain_timeouts}  "
            f"failovers={self.failovers}  degraded={self.degraded_queries}  "
            f"{f'partial={partial}  ' if partial else ''}misses={self.misses}  "
            f"mean recall={self.mean_recall():.3f}"
        )
        return f"{table}\n{tail}"
