"""Fault injection for the event-driven transport.

Three fault classes the paper's testbed could not explore:

- **message loss** — every directed delivery is independently dropped with
  a configurable probability (one deterministic stream per injector, so a
  seed replays the same losses);
- **peer crashes** — a crashed peer silently ignores everything addressed
  to it until it recovers, which is how a fail-stop node looks from the
  outside: no error, just no reply;
- **grey failures** — a *slow* peer stays alive and correct but serves
  degraded: its links carry a latency multiplier and its service rate is
  throttled by a divisor.  This is the failure mode that dominates real
  deployments (and the one fail-stop models can't express): the peer
  answers, just late enough to drag a query's tail with it.

Crashes and slowdowns can be toggled directly (:meth:`crash` /
:meth:`recover`, :meth:`slow` / :meth:`unslow`) or scheduled on a
:class:`~repro.sim.kernel.Simulator` clock to model churn mid-run.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernel import Simulator, Timer
from repro.util.rng import derive_rng

__all__ = ["FaultInjector"]


class FaultInjector:
    """Loss, crash and grey-failure state: the crashed set of every
    :class:`~repro.net.transport.PeerNetwork`, the rest for
    :class:`~repro.sim.network.AsyncNetwork` alone."""

    def __init__(self, drop_probability: float = 0.0, seed: int = 0) -> None:
        self.drop_probability = drop_probability
        self._rng: np.random.Generator = derive_rng(seed, "sim/faults")
        self._crashed: set[int] = set()
        #: Bumped by every :meth:`crash` / :meth:`recover` (scheduled ones
        #: included): what was derived from the crashed set is then stale.
        self.crash_epoch = 0
        #: peer_id -> (latency multiplier, service-time multiplier)
        self._slowed: dict[int, tuple[float, float]] = {}

    # -- loss probability (validated on every assignment) --------------

    @property
    def drop_probability(self) -> float:
        """Independent per-delivery loss probability, in ``[0, 1)``."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, value: float) -> None:
        # Validating in the setter (not just __init__) matters because
        # experiments mutate this mid-run for phased fault schedules.
        if not 0.0 <= value < 1.0:
            raise ValueError("drop probability must be within [0, 1)")
        self._drop_probability = value

    # -- crashes -------------------------------------------------------

    def crash(self, peer_id: int) -> None:
        """Fail-stop a peer: it stops handling and acknowledging messages."""
        self._crashed.add(peer_id)
        self.crash_epoch += 1

    def recover(self, peer_id: int) -> None:
        """Bring a crashed peer back (idempotent)."""
        self._crashed.discard(peer_id)
        self.crash_epoch += 1

    def is_crashed(self, peer_id: int) -> bool:
        return peer_id in self._crashed

    @property
    def crashed_peers(self) -> frozenset[int]:
        """Snapshot of currently crashed peer ids."""
        return frozenset(self._crashed)

    def schedule_crash(
        self, sim: Simulator, peer_id: int, at_ms: float, recover_at_ms: float | None = None
    ) -> tuple[Timer, Timer | None]:
        """Arrange a crash (and optional recovery) on the virtual clock."""
        crash_timer = sim.call_at(at_ms, lambda: self.crash(peer_id))
        recover_timer = None
        if recover_at_ms is not None:
            if recover_at_ms <= at_ms:
                raise ValueError("recovery must come after the crash")
            recover_timer = sim.call_at(recover_at_ms, lambda: self.recover(peer_id))
        return (crash_timer, recover_timer)

    # -- grey failures -------------------------------------------------

    def slow(
        self,
        peer_id: int,
        latency_factor: float = 1.0,
        service_factor: float = 1.0,
    ) -> None:
        """Grey-fail a peer: multiply the delay of every link it touches
        by ``latency_factor`` and its per-request service time by
        ``service_factor`` (i.e. throttle its service *rate* by the same
        divisor).  Factors of 1.0 leave that dimension unchanged."""
        if latency_factor < 1.0 or service_factor < 1.0:
            raise ValueError("slowdown factors must be >= 1")
        self._slowed[peer_id] = (latency_factor, service_factor)

    def unslow(self, peer_id: int) -> None:
        """Restore a grey-failed peer to full speed (idempotent)."""
        self._slowed.pop(peer_id, None)

    def is_slow(self, peer_id: int) -> bool:
        return peer_id in self._slowed

    @property
    def slow_peers(self) -> frozenset[int]:
        """Snapshot of currently grey-failed peer ids."""
        return frozenset(self._slowed)

    def latency_factor(self, peer_id: int) -> float:
        """Latency multiplier of links touching ``peer_id`` (1.0 = healthy)."""
        state = self._slowed.get(peer_id)
        return state[0] if state is not None else 1.0

    def link_factor(self, sender: int, recipient: int) -> float:
        """Latency multiplier of the directed link: the worse endpoint wins."""
        if not self._slowed:
            return 1.0
        return max(self.latency_factor(sender), self.latency_factor(recipient))

    def service_factor(self, peer_id: int) -> float:
        """Service-time multiplier of ``peer_id`` (1.0 = healthy)."""
        state = self._slowed.get(peer_id)
        return state[1] if state is not None else 1.0

    def schedule_slow(
        self,
        sim: Simulator,
        peer_id: int,
        at_ms: float,
        latency_factor: float = 1.0,
        service_factor: float = 1.0,
        recover_at_ms: float | None = None,
    ) -> tuple[Timer, Timer | None]:
        """Arrange a grey failure (and optional recovery) on the clock,
        mirroring :meth:`schedule_crash`."""
        if latency_factor < 1.0 or service_factor < 1.0:
            raise ValueError("slowdown factors must be >= 1")
        slow_timer = sim.call_at(
            at_ms, lambda: self.slow(peer_id, latency_factor, service_factor)
        )
        recover_timer = None
        if recover_at_ms is not None:
            if recover_at_ms <= at_ms:
                raise ValueError("recovery must come after the slowdown")
            recover_timer = sim.call_at(recover_at_ms, lambda: self.unslow(peer_id))
        return (slow_timer, recover_timer)

    # -- loss ----------------------------------------------------------

    def drops_delivery(self) -> bool:
        """Sample whether the next delivery is lost in flight."""
        if self.drop_probability == 0.0:
            return False
        return bool(self._rng.random() < self.drop_probability)
