"""Latency aggregation for event-driven experiments.

The paper's evaluation never reports time-to-answer (its simulator, like
our synchronous transport, had no clock).  The event-driven engine does,
so this module adds the summaries a latency evaluation needs: per-phase
percentile tables (p50/p95/p99 — tail percentiles, unlike the p01/p99
band :mod:`repro.util.stats` computes for the paper's figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.metrics.report import format_table
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)
from repro.rpc.engine import TimedQueryResult

__all__ = [
    "PhasePercentiles",
    "phase_percentiles",
    "LatencyCollector",
    "QUERY_PHASES",
]

#: The phases of one query, in execution order.
QUERY_PHASES = ("route", "match", "fetch", "store", "total")


@dataclass(frozen=True)
class PhasePercentiles:
    """Tail summary of one phase's latency samples (milliseconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_row(self) -> list[str]:
        return [
            str(self.count),
            f"{self.mean:.1f}",
            f"{self.p50:.1f}",
            f"{self.p95:.1f}",
            f"{self.p99:.1f}",
            f"{self.maximum:.1f}",
        ]


def phase_percentiles(values: Iterable[float]) -> PhasePercentiles:
    """Compute :class:`PhasePercentiles` over ``values``.

    An empty sample yields the all-zero ``count=0`` summary rather than
    raising: a run where every query times out (high crash rates in the
    churn experiments) must still render its report, with empty phases
    shown as zero-count rows.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return PhasePercentiles(
            count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0
        )
    return PhasePercentiles(
        count=int(arr.size),
        mean=float(arr.mean()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )


class LatencyCollector(RegistryBackedCounters):
    """Accumulates :class:`TimedQueryResult`\\ s into per-phase summaries.

    Per-phase samples are retained for exact percentile computation, and
    everything is simultaneously published to a
    :class:`~repro.obs.MetricsRegistry` — the scalar tallies as
    ``latency.<field>`` counters (served from the registry, same facade
    as ``TrafficStats``) and the phase samples as the labeled
    ``latency.phase_ms`` histogram.  Pass ``registry=system.metrics`` to
    unify with the system's counters; a standalone collector binds a
    private registry.
    """

    SCALAR_FIELDS = (
        "queries",
        "chain_timeouts",
        "failovers",
        "degraded_queries",
        "partial_queries",
        "misses",
    )

    queries = registry_field("queries")
    #: Individual lookup chains that timed out.
    chain_timeouts = registry_field("chain_timeouts")
    #: Individual lookup chains answered by a successor-list replica after
    #: the identifier's owner was unreachable.
    failovers = registry_field("failovers")
    #: Queries answered from fewer than ``l`` replies.
    degraded_queries = registry_field("degraded_queries")
    #: Queries a partial quorum answered early (a subset of degraded).
    partial_queries = registry_field("partial_queries")
    #: Queries that located no partition at all.
    misses = registry_field("misses")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._bind(registry, "latency")
        self.phases: dict[str, list[float]] = {phase: [] for phase in QUERY_PHASES}
        self.recalls: list[float] = []
        self._phase_hist = self.registry.histogram(
            "latency.phase_ms", help="per-phase query latency samples"
        )

    def add(self, result: TimedQueryResult) -> None:
        """Record one event-driven query result."""
        for phase, value in (
            ("route", result.route_ms),
            ("match", result.match_ms),
            ("fetch", result.fetch_ms),
            ("store", result.store_ms),
            ("total", result.total_ms),
        ):
            self.phases[phase].append(value)
            self._phase_hist.observe(value, phase=phase)
        self.queries += 1
        self.chain_timeouts += result.timeouts
        self.failovers += result.failovers
        if result.degraded:
            self.degraded_queries += 1
        if result.partial:
            self.partial_queries += 1
        if not result.found:
            self.misses += 1
        self.recalls.append(result.recall)

    def phase_summary(self) -> dict[str, PhasePercentiles]:
        """Per-phase percentiles over all recorded queries.

        Every phase is present; one with no samples yet summarizes as a
        ``count=0`` row (see :func:`phase_percentiles`).
        """
        return {
            phase: phase_percentiles(values)
            for phase, values in self.phases.items()
        }

    def mean_recall(self) -> float:
        """Mean recall across recorded queries (0.0 when none recorded)."""
        return float(np.mean(self.recalls)) if self.recalls else 0.0

    def report(self, title: str = "Query latency by phase") -> str:
        """Human-readable phase table plus the fault tallies."""
        summary = self.phase_summary()
        rows: list[Sequence[object]] = [
            [phase, *summary[phase].as_row()] for phase in QUERY_PHASES if phase in summary
        ]
        table = format_table(
            ["phase", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"],
            rows,
            title=title,
        )
        # The partial tally only appears when quorum completion fired, so
        # reports from runs without the feature stay byte-identical.
        partial = (
            f"partial={self.partial_queries}  " if self.partial_queries else ""
        )
        tail = (
            f"queries={self.queries}  chain timeouts={self.chain_timeouts}  "
            f"failovers={self.failovers}  degraded={self.degraded_queries}  "
            f"{partial}misses={self.misses}  mean recall={self.mean_recall():.3f}"
        )
        return f"{table}\n{tail}"
