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

from dataclasses import dataclass
from itertools import product

from repro.experiments.scenario import CellTable, FaultSweep
from repro.metrics.collector import LogTally, QueryLog
from repro.sim.network import RetryPolicy

__all__ = ["EventLatencyExperiment", "EventLatencyOutcome", "FaultCell"]


@dataclass(frozen=True)
class FaultCell(LogTally):
    """Measured outcome of one (drop rate, failure fraction) setting."""

    drop_rate: float
    fail_fraction: float
    crashed_peers: int

    def as_row(self) -> dict[str, str]:
        return {
            "drop": f"{self.drop_rate:.0%}",
            "failed": f"{self.fail_fraction:.0%}",
            "p50 ms": f"{self.p50_ms:.0f}",
            "p95 ms": f"{self.p95_ms:.0f}",
            "p99 ms": f"{self.p99_ms:.0f}",
            "recall": f"{self.mean_recall:.3f}",
            "timeouts": str(self.chain_timeouts),
            "degraded": str(self.degraded_queries),
            "misses": str(self.misses),
        }


@dataclass
class EventLatencyOutcome(CellTable[FaultCell]):
    """All cells, keyed ``(drop_rate, fail_fraction)``, plus the
    fault-free phase breakdown."""

    baseline_phase_report: str
    n_peers: int
    policy: RetryPolicy

    @property
    def title(self) -> str:
        return (
            "Extension — event-driven query latency under faults "
            f"({self.n_peers} peers, timeout {self.policy.timeout_ms:.0f} ms "
            f"x{self.policy.total_attempts} attempts)"
        )

    def report(self) -> str:
        return f"{super().report()}\n\n{self.baseline_phase_report}"


@dataclass
class EventLatencyExperiment(FaultSweep):
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
        run = self.start(
            "event-latency/",
            warm_queries=self.warm_queries,
            timed_queries=self.timed_queries,
            drop=drop_rate,
            crash_fraction=fail_fraction,
        )
        run.crash()
        log = QueryLog([run.engine.run(query) for query in run.queries()])
        cell = log.tally(
            FaultCell,
            drop_rate=drop_rate,
            fail_fraction=fail_fraction,
            crashed_peers=len(run.crashed),
        )
        return (cell, log)

    def run(self) -> EventLatencyOutcome:
        cells: dict[tuple, FaultCell] = {}
        baseline_report = ""
        for key in product(self.drop_rates, self.fail_fractions):
            cells[key], log = self._run_cell(*key)
            if key == (0.0, 0.0):
                baseline_report = log.report(
                    "Fault-free phase breakdown (route/match/fetch/store/total)"
                )
        return EventLatencyOutcome(
            cells,
            baseline_phase_report=baseline_report,
            n_peers=self.n_peers,
            policy=self.policy,
        )
