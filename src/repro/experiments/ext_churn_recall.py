"""Extension — recall under churn: replication factor x crash rate.

The paper's evaluation assumes every peer that stored a bucket entry is
still there to answer (Section 6 lists "node joining and leaving the
system" as future work).  This experiment measures what crashes actually
cost, and what successor-list replication plus anti-entropy repair buys
back.

The workload is chosen so redundancy *within* the LSH scheme does not mask
the loss.  Warm partitions are disjoint width-``tile_width`` tiles of the
domain; timed queries are the same tiles jittered by one unit, giving a
query/partition similarity of ``(w-1)/(w+1)`` (~0.94 for w=30).  At
``k = 20`` a group matches with probability ``~0.94**20 ~ 0.26``, so a
typical query reaches its stored tile through only one or two of its ``l``
identifiers — losing that identifier's owner loses the answer, unlike a
resubmit-the-same-range workload where all ``l`` groups match and recall
barely moves (see ``ext_event_latency``, where 10% crashes cost under two
recall points).

Churn arrives in waves: each wave crashes a slice of the doomed peers and,
in the repaired configuration, the anti-entropy task runs between waves —
data survives as long as one of an identifier's ``r`` replicas lives past
each repair round.  Expected shapes: ``r = 1`` loses recall roughly in
proportion to the per-identifier owner-death rate; ``r = 3`` without
repair recovers most of it (all three replicas must die); ``r = 3`` with
repair stays within a few points of fault-free, with failover lookups
doing the serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.scenario import CellTable, FaultSweep, ReplicationMode
from repro.metrics.collector import LogTally, QueryLog
from repro.sim.network import RetryPolicy

__all__ = ["ChurnRecallExperiment", "ChurnRecallOutcome", "ChurnCell", "ReplicationMode"]


@dataclass(frozen=True)
class ChurnCell(LogTally):
    """Measured outcome of one (mode, crash fraction) setting."""

    mode: ReplicationMode
    crash_fraction: float
    crashed_peers: int
    repairs: int

    @property
    def matched_fraction(self) -> float:
        return 1.0 - self.misses / max(1, self.queries)

    def as_row(self) -> dict[str, str]:
        return {
            "mode": self.mode.label,
            "crashed": f"{self.crash_fraction:.0%}",
            "recall": f"{self.mean_recall:.3f}",
            "matched": f"{self.matched_fraction:.3f}",
            "failovers": str(self.failovers),
            "timeouts": str(self.chain_timeouts),
            "degraded": str(self.degraded_queries),
            "misses": str(self.misses),
            "repairs": str(self.repairs),
            "p95 ms": f"{self.p95_ms:.0f}",
        }


@dataclass
class ChurnRecallOutcome(CellTable[ChurnCell]):
    """All cells of the replication x churn sweep, keyed
    ``(mode label, crash_fraction)``."""

    n_peers: int
    tile_width: int
    policy: RetryPolicy

    @property
    def title(self) -> str:
        return (
            "Extension — recall under churn, replication x crash rate "
            f"({self.n_peers} peers, width-{self.tile_width} tiles, "
            "jitter-1 queries)"
        )

    def recall_drop(self, mode_label: str, crash_fraction: float) -> float:
        """Recall lost versus the same mode's fault-free cell."""
        baseline = self.cell(mode_label, 0.0).mean_recall
        return baseline - self.cell(mode_label, crash_fraction).mean_recall


@dataclass
class ChurnRecallExperiment(FaultSweep):
    """Sweep replication mode x crashed-peer fraction against recall.

    Each cell builds a fresh system, stores one partition per domain tile
    (replicated per the mode), crashes peers in ``churn_waves`` waves —
    running an anti-entropy round between waves when the mode repairs —
    and then runs jittered tile queries on the event-driven engine with
    failover.  Stores are disabled during the timed phase so recall
    measures surviving data, not re-insertion.
    """

    n_peers: int = 400
    tile_width: int = 30
    timed_queries: int = 300
    modes: tuple[ReplicationMode, ...] = (
        ReplicationMode(1, False),
        ReplicationMode(3, False),
        ReplicationMode(3, True),
    )
    crash_fractions: tuple[float, ...] = (0.0, 0.10, 0.20)
    churn_waves: int = 4
    policy: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_retries=1), kw_only=True)
    repair_interval_ms: float = 5_000.0

    @classmethod
    def quick(cls) -> "ChurnRecallExperiment":
        return cls(
            n_peers=100,
            timed_queries=120,
            crash_fractions=(0.0, 0.20),
            churn_waves=2,
        )

    def _run_cell(
        self, mode: ReplicationMode, crash_fraction: float
    ) -> ChurnCell:
        run = self.start(
            "churn-recall/",
            dict(replicas=mode.replicas, store_on_miss=False),
            tile_width=self.tile_width,
            timed_queries=self.timed_queries,
            crash_fraction=crash_fraction,
            repair=mode.repair,
            repair_interval_ms=self.repair_interval_ms,
        )
        waves = max(1, self.churn_waves)
        for wave in range(waves):
            run.crash(wave, waves)
            if run.repairer is not None:
                run.engine.sim.run_until_complete(run.repairer.run_round())
        log = QueryLog([run.engine.run(query) for query in run.queries()])
        return log.tally(
            ChurnCell,
            mode=mode,
            crash_fraction=crash_fraction,
            crashed_peers=len(run.crashed),
            repairs=run.repairer.stats.copies_created if run.repairer else 0,
        )

    def run(self) -> ChurnRecallOutcome:
        cells = {
            (mode.label, fraction): self._run_cell(mode, fraction)
            for mode in self.modes
            for fraction in self.crash_fractions
        }
        return ChurnRecallOutcome(
            cells,
            n_peers=self.n_peers,
            tile_width=self.tile_width,
            policy=self.policy,
        )
