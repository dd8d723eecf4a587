"""Anti-entropy replica repair on the event-driven kernel.

Store-time replication keeps ``r`` copies of every bucket entry only until
churn eats them: each crash silently drops the copies its peer held, and
each failover answer papers over the loss without fixing it.  The
:class:`ReplicaRepairer` is the self-healing half of the robustness story —
a periodic simulation task that takes the system's repair plan (the
placement planner's diff of *actual* placement against the first ``r``
alive successors of every identifier,
:meth:`RangeSelectionSystem.repair_plan`) and re-replicates the missing
copies peer-to-peer, under the same timeout/retry discipline as any other
request.

An identifier whose every copy sits on crashed peers is *unrepairable*: no
alive holder can source the copy, so the round counts it as lost and moves
on.  With ``r = 1`` this is the common case after a crash — exactly the
degradation the replicated configurations are measured against.
"""

from __future__ import annotations

from repro.obs.log import get_logger
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)
from repro.sim.futures import SimFuture, gather
from repro.sim.network import RetryPolicy
from repro.sim.query import AsyncQueryEngine

__all__ = ["ReplicaRepairer", "RepairStats"]

logger = get_logger("sim.repair")


class RepairStats(RegistryBackedCounters):
    """Running totals across repair rounds.

    Served from a :class:`~repro.obs.MetricsRegistry` as ``repair.*``
    counters; the repairer binds its engine's system registry so repair
    activity appears in the unified metric exports.
    """

    SCALAR_FIELDS = ("rounds", "copies_created", "copy_failures", "unrepairable")

    rounds = registry_field("rounds")
    #: Copies successfully re-replicated onto alive successors.
    copies_created = registry_field("copies_created")
    #: Copy attempts whose target never answered (crashed mid-round).
    copy_failures = registry_field("copy_failures")
    #: Deficits seen whose identifier had no alive holder left, summed
    #: over rounds (the same lost identifier counts every round it is
    #: observed — this measures exposure, not unique losses).
    unrepairable = registry_field("unrepairable")

    def __init__(
        self,
        rounds: int = 0,
        copies_created: int = 0,
        copy_failures: int = 0,
        unrepairable: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._bind(registry, "repair")
        self.rounds = rounds
        self.copies_created = copies_created
        self.copy_failures = copy_failures
        self.unrepairable = unrepairable

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.rounds} rounds, {self.copies_created} copies created, "
            f"{self.copy_failures} copy failures, "
            f"{self.unrepairable} unrepairable deficits"
        )


class ReplicaRepairer:
    """Periodic repair task bound to an :class:`AsyncQueryEngine`.

    ``start()`` schedules a round every ``interval_ms`` of virtual time;
    rounds keep rescheduling themselves until ``stop()``.  The simulator
    only advances while something drives it, so an idle repairer does not
    keep a simulation alive by itself — but a driven simulation (queries,
    ``sim.run()``) will execute due rounds automatically.  ``run_round()``
    can also be called directly for deterministic repair-after-churn
    experiments.
    """

    def __init__(
        self,
        engine: AsyncQueryEngine,
        interval_ms: float = 5_000.0,
        policy: RetryPolicy | None = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("repair interval must be positive")
        self.engine = engine
        self.interval_ms = interval_ms
        self.policy = policy if policy is not None else engine.net.policy
        self.stats = RepairStats(registry=engine.system.metrics)
        self._timer = None
        self._running = False

    # -- scheduling ----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether periodic rounds are currently scheduled."""
        return self._running

    def start(self) -> None:
        """Begin periodic repair (idempotent)."""
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Cancel the pending round (idempotent)."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        self._timer = self.engine.sim.call_later(self.interval_ms, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        future = self.run_round()
        future.add_done_callback(
            lambda _settled: self._schedule_next() if self._running else None
        )

    # -- one round -----------------------------------------------------

    def run_round(self) -> SimFuture[int]:
        """One anti-entropy pass; resolves with the copies created.

        Scans placement synchronously (anti-entropy exchanges are modelled
        at the copy level, not the digest level), then issues every
        missing copy as a timed store-request from an alive holder to the
        alive successor that should hold it.
        """
        engine = self.engine
        system = engine.system
        net = engine.net
        self.stats.rounds += 1
        deficits, lost = system.repair_plan(net.is_alive)
        self.stats.unrepairable += len(lost)
        out: SimFuture[int] = SimFuture()
        if not deficits:
            # Resolve on the clock, not inline, so callers can always
            # attach callbacks before the round settles.
            engine.sim.call_later(0.0, lambda: out.resolve(0))
            return out
        copies = [
            net.request(
                source,
                target,
                "store-request",
                payload=(identifier, descriptor, partition, primary),
                size_bytes=partition.size_bytes if partition else 64,
                policy=self.policy,
            )
            for identifier, descriptor, source, partition, target, primary in deficits
        ]

        def on_done(settled: SimFuture) -> None:
            outcomes = settled.result()
            created = sum(1 for o in outcomes if not isinstance(o, Exception))
            failed = len(outcomes) - created
            self.stats.copies_created += created
            self.stats.copy_failures += failed
            system.counters.repairs += created
            logger.info(
                "repair round %d: %d copies created, %d failed",
                int(self.stats.rounds), created, failed,
            )
            out.resolve(created)

        gather(copies).add_done_callback(on_done)
        return out
