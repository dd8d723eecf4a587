"""Extension — end-to-end query latency under loss and peer failure.

The paper argues the ``l`` identifier lookups proceed in parallel, so a
query completes in ``O(log N)`` *wall-clock* hop times — but its simulator
(like our synchronous transport) never modelled time, loss or failure.
This experiment runs the query procedure on the discrete-event kernel
(:mod:`repro.sim`) over a ring with pairwise-deterministic wide-area
latency, sweeping message drop probability and the fraction of crashed
peers, and reports completion-time percentiles (p50/p95/p99), recall, and
timeout counts per cell — the evaluation axis NearBucket-LSH and
Distributed-LSH style systems are judged on.

Expected shapes: the fault-free column's p99 sits far below one timeout
(parallel chains: completion is the *max*, not the sum, of the ``l``
lookups); drops push the tail towards the retry schedule; crashed peers
cost recall only in proportion to how many of a query's ``l`` owners died.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.config import SystemConfig
from repro.experiments.fig6_7_quality import PAPER_DOMAIN
from repro.experiments.scenario import Scenario
from repro.metrics.collector import QueryLog
from repro.metrics.report import format_table
from repro.ranges.domain import Domain
from repro.sim.network import RetryPolicy

__all__ = ["EventLatencyExperiment", "EventLatencyOutcome", "FaultCell"]


@dataclass(frozen=True)
class FaultCell:
    """Measured outcome of one (drop rate, failure fraction) setting."""

    drop_rate: float
    fail_fraction: float
    crashed_peers: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_recall: float
    chain_timeouts: int
    degraded_queries: int
    misses: int
    queries: int

    def as_row(self) -> list[str]:
        return [
            f"{self.drop_rate:.0%}",
            f"{self.fail_fraction:.0%}",
            f"{self.p50_ms:.0f}",
            f"{self.p95_ms:.0f}",
            f"{self.p99_ms:.0f}",
            f"{self.mean_recall:.3f}",
            str(self.chain_timeouts),
            str(self.degraded_queries),
            str(self.misses),
        ]


@dataclass
class EventLatencyOutcome:
    """All cells plus the fault-free phase breakdown."""

    cells: list[FaultCell]
    baseline_phase_report: str
    n_peers: int
    policy: RetryPolicy

    def cell(self, drop_rate: float, fail_fraction: float) -> FaultCell:
        """The measured cell for one sweep setting."""
        for cell in self.cells:
            if cell.drop_rate == drop_rate and cell.fail_fraction == fail_fraction:
                return cell
        raise KeyError((drop_rate, fail_fraction))

    def report(self) -> str:
        table = format_table(
            [
                "drop",
                "failed",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "recall",
                "timeouts",
                "degraded",
                "misses",
            ],
            [cell.as_row() for cell in self.cells],
            title=(
                "Extension — event-driven query latency under faults "
                f"({self.n_peers} peers, timeout {self.policy.timeout_ms:.0f} ms "
                f"x{self.policy.total_attempts} attempts)"
            ),
        )
        return f"{table}\n\n{self.baseline_phase_report}"


@dataclass
class EventLatencyExperiment:
    """Sweep (drop rate x failed-peer fraction) against completion time.

    Each cell builds a fresh system, warms it with synchronous queries so
    buckets hold partitions, crashes the requested fraction of peers, then
    times event-driven queries on the virtual clock.
    """

    n_peers: int = 1000
    warm_queries: int = 400
    timed_queries: int = 200
    drop_rates: tuple[float, ...] = (0.0, 0.05, 0.10)
    fail_fractions: tuple[float, ...] = (0.0, 0.05, 0.10)
    latency_low_ms: float = 10.0
    latency_high_ms: float = 100.0
    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(timeout_ms=400.0, max_retries=2)
    )
    domain: Domain = field(default_factory=lambda: PAPER_DOMAIN)
    seed: int = 2003

    @classmethod
    def paper(cls) -> "EventLatencyExperiment":
        return cls()

    @classmethod
    def quick(cls) -> "EventLatencyExperiment":
        return cls(
            n_peers=100,
            warm_queries=120,
            timed_queries=60,
            drop_rates=(0.0, 0.10),
            fail_fractions=(0.0, 0.10),
        )

    def _run_cell(
        self, drop_rate: float, fail_fraction: float
    ) -> tuple[FaultCell, QueryLog]:
        run = Scenario(
            SystemConfig(n_peers=self.n_peers, domain=self.domain, seed=self.seed),
            stream="event-latency/",
            warm_queries=self.warm_queries,
            timed_queries=self.timed_queries,
            latency_ms=(self.latency_low_ms, self.latency_high_ms),
            drop=drop_rate,
            crash_fraction=fail_fraction,
            **asdict(self.policy),
        ).start()
        run.crash()
        log = QueryLog([run.engine.run(query) for query in run.queries()])
        summary = log.phase_summary()["total"]
        cell = FaultCell(
            drop_rate=drop_rate,
            fail_fraction=fail_fraction,
            crashed_peers=len(run.crashed),
            p50_ms=summary.p50,
            p95_ms=summary.p95,
            p99_ms=summary.p99,
            mean_recall=log.mean_recall(),
            chain_timeouts=log.chain_timeouts,
            degraded_queries=log.degraded_queries,
            misses=log.misses,
            queries=len(log),
        )
        return (cell, log)

    def run(self) -> EventLatencyOutcome:
        cells: list[FaultCell] = []
        baseline_report = ""
        for drop_rate in self.drop_rates:
            for fail_fraction in self.fail_fractions:
                cell, log = self._run_cell(drop_rate, fail_fraction)
                cells.append(cell)
                if drop_rate == 0.0 and fail_fraction == 0.0:
                    baseline_report = log.report(
                        "Fault-free phase breakdown (route/match/fetch/store/total)"
                    )
        return EventLatencyOutcome(
            cells=cells,
            baseline_phase_report=baseline_report,
            n_peers=self.n_peers,
            policy=self.policy,
        )
