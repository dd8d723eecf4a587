"""Anti-entropy replica repair on the event-driven kernel.

Store-time replication keeps ``r`` copies of every bucket entry only until
churn eats them: each crash silently drops the copies its peer held, and
each failover answer papers over the loss without fixing it.  The
:class:`ReplicaRepairer` is the self-healing half of the robustness story —
a periodic simulation task that runs the system's repair round
(:meth:`RangeSelectionSystem.repair_round`, the one the synchronous
:meth:`~RangeSelectionSystem.repair_replicas` pass runs too) on its
engine's network: the placement planner's diff of *actual* placement
against the first ``r`` alive successors of every identifier, re-replicated
peer-to-peer under the same timeout/retry discipline as any other request.

An identifier whose every copy sits on crashed peers is *unrepairable*: no
alive holder can source the copy, so the round counts it as lost and moves
on.  With ``r = 1`` this is the common case after a crash — exactly the
degradation the replicated configurations are measured against.
"""

from __future__ import annotations

from repro.core.system import RepairStats
from repro.sim.futures import SimFuture
from repro.sim.network import RetryPolicy
from repro.sim.query import AsyncQueryEngine

__all__ = ["ReplicaRepairer", "RepairStats"]


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
        #: The system's ``repair.*`` counters, shared with every round.
        self.stats = engine.system.repair_stats
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
        """One :meth:`RangeSelectionSystem.repair_round` on the engine's
        network, under this repairer's policy; resolves with the copies
        created."""
        return self.engine.system.repair_round(self.engine.net, self.policy)
