"""Extension — health telemetry under churn: deficits, audits, skew.

Figure 11 takes one static look at load balance.  This experiment runs
the health subsystem while the system is actually being damaged: peers
crash in waves under an event-driven workload, the
:class:`~repro.obs.TelemetrySampler` records the replica-deficit and
load time series on the virtual clock, and the
:class:`~repro.obs.RingAuditor` grades the final state.

Expected shapes: ``r = 1`` accumulates unrepairable losses (critical
findings) because a crashed owner takes the only copy with it; ``r = 3``
without repair reports a persistent deficit (warnings) that grows with
each wave; ``r = 3`` with repair shows the deficit spike at each wave and
decay back toward zero after the next anti-entropy round — the
self-healing signature, now visible as a time series rather than
inferred from recall.  Load skew (Gini, max/mean) stays in the Fig 11
band throughout, since crashes remove servers, not placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.scenario import CellTable, FaultSweep, ReplicationMode
from repro.metrics.report import sparkline
from repro.obs.health import RingAuditor, skew_stats
from repro.sim.network import RetryPolicy

__all__ = ["HealthChurnExperiment", "HealthChurnOutcome", "HealthCell"]


@dataclass(frozen=True)
class HealthCell:
    """Measured health trajectory of one replication mode."""

    mode: ReplicationMode
    crashed_peers: int
    samples: int
    #: The sampled ``health.replica_deficit`` series, oldest first.
    deficit_series: tuple[float, ...]
    peak_deficit: float
    final_deficit: float
    critical_findings: int
    warning_findings: int
    gini: float
    max_mean: float
    failovers: int
    queries: int

    def as_row(self) -> dict[str, str]:
        return {
            "mode": self.mode.label,
            "crashed": str(self.crashed_peers),
            "samples": str(self.samples),
            "peak def": f"{self.peak_deficit:.0f}",
            "final def": f"{self.final_deficit:.0f}",
            "critical": str(self.critical_findings),
            "warning": str(self.warning_findings),
            "gini": f"{self.gini:.3f}",
            "max/mean": f"{self.max_mean:.2f}",
            "failovers": str(self.failovers),
            "deficit trend": sparkline(list(self.deficit_series), width=24),
        }


@dataclass
class HealthChurnOutcome(CellTable[HealthCell]):
    """All modes of the health-under-churn sweep, keyed ``(mode label,)``."""

    n_peers: int
    crash_fraction: float
    sample_interval_ms: float

    @property
    def title(self) -> str:
        return (
            "Extension — ring health under churn "
            f"({self.n_peers} peers, {self.crash_fraction:.0%} crashed "
            f"in waves, sampled every {self.sample_interval_ms:g} ms)"
        )


@dataclass
class HealthChurnExperiment(FaultSweep):
    """Track replica deficits, audit findings and load skew under churn.

    Each mode builds a fresh replicated system, stores one partition per
    domain tile, starts a periodic :class:`TelemetrySampler` on the
    event-driven clock, then alternates crash waves with timed jittered
    queries (which drive the virtual clock, firing sampler and repair
    ticks).  The final audit and skew statistics summarize where each
    configuration ends up.
    """

    n_peers: int = 300
    tile_width: int = 30
    queries_per_phase: int = 40
    modes: tuple[ReplicationMode, ...] = (
        ReplicationMode(1, False),
        ReplicationMode(3, False),
        ReplicationMode(3, True),
    )
    crash_fraction: float = 0.20
    churn_waves: int = 4
    sample_interval_ms: float = 500.0
    policy: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_retries=1), kw_only=True)
    repair_interval_ms: float = 5_000.0

    @classmethod
    def quick(cls) -> "HealthChurnExperiment":
        return cls(n_peers=80, queries_per_phase=15, churn_waves=2)

    def _run_cell(self, mode: ReplicationMode) -> HealthCell:
        waves = max(1, self.churn_waves)
        run = self.start(
            "health-churn/",
            dict(replicas=mode.replicas, store_on_miss=False),
            tile_width=self.tile_width,
            timed_queries=self.queries_per_phase * (waves + 1),
            crash_fraction=self.crash_fraction,
            repair=mode.repair,
            repair_interval_ms=self.repair_interval_ms,
            sample_interval_ms=self.sample_interval_ms,
        )
        system, engine, repairer, sampler = run.system, run.engine, run.repairer, run.sampler
        sampler.sample_once()
        sampler.start()
        if repairer is not None:
            repairer.start()

        queries = run.queries()
        phase = self.queries_per_phase
        for wave in range(waves + 1):
            if wave:
                run.crash(wave - 1, waves)
            for query in queries[wave * phase : (wave + 1) * phase]:
                engine.run(query)
        if repairer is not None:
            # One final deterministic round so the end state reflects a
            # completed repair, not wherever the periodic tick happened
            # to be.
            engine.sim.run_until_complete(repairer.run_round())
            repairer.stop()
        sampler.stop()
        sampler.sample_once()

        audit = RingAuditor(system).audit()
        deficit_metric = system.metrics.timeseries("health.replica_deficit")
        deficit_series = tuple(deficit_metric.values())
        alive_loads = [
            system.stores[nid].partition_count
            for nid in system.router.node_ids
            if system.network.is_alive(nid)
        ]
        skew = skew_stats(alive_loads)
        counts = audit.counts
        return HealthCell(
            mode=mode,
            crashed_peers=len(run.crashed),
            samples=sampler.samples_taken,
            deficit_series=deficit_series,
            peak_deficit=max(deficit_series, default=0.0),
            final_deficit=deficit_series[-1] if deficit_series else 0.0,
            critical_findings=counts["critical"],
            warning_findings=counts["warning"],
            gini=skew.gini,
            max_mean=skew.max_mean,
            failovers=int(system.counters.failovers),
            queries=len(queries),
        )

    def run(self) -> HealthChurnOutcome:
        cells = {(mode.label,): self._run_cell(mode) for mode in self.modes}
        return HealthChurnOutcome(
            cells,
            n_peers=self.n_peers,
            crash_fraction=self.crash_fraction,
            sample_interval_ms=self.sample_interval_ms,
        )
