"""Extension — overload protection: offered load x grey-slow peers.

The paper's simulator (and our synchronous transport) serves every request
instantly, so "heavy traffic from millions of users" is invisible to it.
This experiment puts the event-driven stack under *sustained open-loop
load* — queries arrive on a fixed schedule whether or not earlier ones
finished — while a fraction of peers grey-fails: still alive and correct,
but with link latency and service time inflated by ``slow_factor``.  The
query procedure's completion time is the max over its ``l`` lookup chains,
so a single overloaded identifier owner is the whole query's latency;
grey-slow peers are therefore tail-latency poison in exactly the shape
the overload-protection layer targets.

Every cell runs the same bounded-queue service model
(``peer_queue`` / ``service_rate``); what the sweep toggles is the
*response* to overload:

- **protections off** — static 400 ms timeouts, immediate retries, no
  breakers, no hedging: chains wait out full retry schedules against
  drowning peers, and busy-shed replies trigger instant re-asks;
- **protections on** — per-destination adaptive timeouts + jittered
  backoff, circuit breakers that fail fast toward persistently failing
  peers, hedged lookups at the live p95, and 4-of-5 partial-quorum
  completion once the best match clears the similarity threshold.

**Saturation** is defined against the *slow* peers: a grey-failed peer
serves at ``service_rate / slow_factor``, so offered load
``saturation_qps = n_peers * (service_rate / slow_factor) / l`` is where
a slow peer's share of the request stream saturates it, while healthy
peers still have ``slow_factor``x headroom.  At ``2x`` that load the slow
10% of the ring is hopelessly overloaded and the healthy 90% is at ~25%
utilisation — overload protection cannot conjure capacity, but it *can*
route around the drowning minority, which is the graceful-degradation
claim this experiment checks: protections-on should hold p99 within ~3x
of the uncontended baseline and recall within a few points, while
protections-off visibly collapses.

The workload reuses the churn experiment's tile-jitter shape (disjoint
width-30 tiles stored once, queries jittered by one unit, stores off), so
recall measures whether the stored tile was *reached*, not re-inserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.experiments.scenario import CellTable, FaultSweep
from repro.metrics.collector import LogTally, QueryLog

__all__ = ["OverloadExperiment", "OverloadOutcome", "OverloadCell"]


@dataclass(frozen=True)
class OverloadCell(LogTally):
    """Measured outcome of one (protections, load, slow fraction) setting.

    The log tally covers the measured window; the traffic tallies (shed,
    hedges, breaker trips) the whole run.
    """

    protections: bool
    load_factor: float
    slow_fraction: float
    offered_qps: float
    slow_peers: int
    busy_shed: int
    hedges: int
    hedge_wins: int
    breaker_opens: int

    @property
    def label(self) -> str:
        return "on" if self.protections else "off"

    def as_row(self) -> dict[str, str]:
        return {
            "mode": self.label,
            "load": f"{self.load_factor:g}x",
            "slow": f"{self.slow_fraction:.0%}",
            "recall": f"{self.mean_recall:.3f}",
            "p50 ms": f"{self.p50_ms:.0f}",
            "p99 ms": f"{self.p99_ms:.0f}",
            "timeouts": str(self.chain_timeouts),
            "shed": str(self.busy_shed),
            "hedge w/l": f"{self.hedges}/{self.hedge_wins}",
            "breaker": str(self.breaker_opens),
            "partial": str(self.partial_queries),
            "misses": str(self.misses),
        }


@dataclass
class OverloadOutcome(CellTable[OverloadCell]):
    """All cells of the protections x load x slow-fraction sweep, keyed
    ``(protections, load_factor, slow_fraction)``."""

    n_peers: int
    saturation_qps: float
    service_rate: float
    slow_factor: float

    @property
    def title(self) -> str:
        return (
            "Extension — overload protection, offered load x grey-slow "
            f"peers ({self.n_peers} peers, queue service "
            f"{self.service_rate:g} req/s, slow x{self.slow_factor:g}, "
            f"saturation {self.saturation_qps:g} qps)"
        )

    def baseline(self) -> OverloadCell:
        """The uncontended reference: protections off, lightest load, no
        slow peers."""
        lightest = min(cell.load_factor for cell in self.cells)
        return self.cell(False, lightest, 0.0)

    def report(self) -> str:
        base = self.baseline()
        tail = (
            f"baseline (off, {base.load_factor:g}x, 0% slow): "
            f"p99={base.p99_ms:.0f} ms, recall={base.mean_recall:.3f}"
        )
        return f"{super().report()}\n{tail}"


@dataclass
class OverloadExperiment(FaultSweep):
    """Sweep protections x offered load x grey-slow fraction.

    Each cell builds a fresh system, stores one partition per domain tile
    (``replicas`` copies), grey-fails a fraction of peers, and drives an
    open-loop tile-jitter workload through the event-driven engine with
    the bounded-queue service model on.  Cells differ only in arrival
    rate, slow fraction, and whether the adaptive/overload protections
    (hedge + quorum + breaker + adaptive timeout) are enabled.

    The first ``warmup_queries`` arrivals are excluded from the latency
    and recall summaries: the protections are *learned* state (RTT
    estimates, breaker trips, the hedge trigger's p95), so the measured
    window is the steady state the protections converge to, not the cold
    start.  Both modes run the identical warmup so they see the same
    offered load.  The traffic tallies (shed / hedges / breaker trips)
    cover the whole run including warmup.
    """

    n_peers: int = 120
    tile_width: int = 30
    timed_queries: int = 250
    warmup_queries: int = 80
    replicas: int = 3
    peer_queue: int = 4
    service_rate: float = 40.0
    slow_factor: float = 8.0
    load_factors: tuple[float, ...] = (0.25, 2.0)
    slow_fractions: tuple[float, ...] = (0.0, 0.10)
    quorum: int = 4
    quorum_threshold: float = 0.9

    @classmethod
    def quick(cls) -> "OverloadExperiment":
        return cls(n_peers=100, timed_queries=150)

    @property
    def saturation_qps(self) -> float:
        """Offered load at which a grey-slow peer's share saturates it."""
        return self.n_peers * (self.service_rate / self.slow_factor) / 5.0

    def _run_cell(
        self, protections: bool, load_factor: float, slow_fraction: float
    ) -> OverloadCell:
        run = self.start(
            "overload/",
            dict(
                replicas=self.replicas,
                store_on_miss=False,
                peer_queue=self.peer_queue,
                service_rate=self.service_rate,
                hedge=protections,
                quorum=self.quorum if protections else 0,
                quorum_threshold=self.quorum_threshold,
                breaker=protections,
                adaptive_timeout=protections,
            ),
            tile_width=self.tile_width,
            timed_queries=self.warmup_queries + self.timed_queries,
            slow_fraction=slow_fraction,
            slow_factor=self.slow_factor,
        )
        offered_qps = load_factor * self.saturation_qps
        results = run.engine.run_open_loop(run.queries(), 1000.0 / offered_qps)
        stats = run.engine.net.stats
        return QueryLog(results[self.warmup_queries :]).tally(
            OverloadCell,
            protections=protections,
            load_factor=load_factor,
            slow_fraction=slow_fraction,
            offered_qps=offered_qps,
            slow_peers=len(run.slowed),
            busy_shed=stats.busy_shed,
            hedges=stats.hedges,
            hedge_wins=stats.hedge_wins,
            breaker_opens=int(run.system.metrics.counter("sim.breaker.opened").get()),
        )

    def run(self) -> OverloadOutcome:
        cells = {
            key: self._run_cell(*key)
            for key in product((False, True), self.load_factors, self.slow_fractions)
        }
        return OverloadOutcome(
            cells,
            n_peers=self.n_peers,
            saturation_qps=self.saturation_qps,
            service_rate=self.service_rate,
            slow_factor=self.slow_factor,
        )
