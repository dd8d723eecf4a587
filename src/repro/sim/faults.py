"""Who is crashed and who is slow: the fault state of a system's peers.

Two fault classes the paper's testbed could not explore:

- **peer crashes** — a crashed peer silently ignores everything addressed
  to it until it recovers, which is how a fail-stop node looks from the
  outside: no error, just no reply;
- **grey failures** — a *slow* peer stays alive and correct but serves
  degraded: its links carry a latency multiplier and its service rate is
  throttled by a divisor.  This is the failure mode that dominates real
  deployments (and the one fail-stop models can't express): the peer
  answers, just late enough to drag a query's tail with it.

One injector serves every in-process transport of a system: the
synchronous :class:`~repro.net.transport.SimulatedNetwork` builds it, and
each :class:`~repro.sim.network.AsyncNetwork` an engine puts on the system
runs on the same one, so a crash is one fact every path sees.  A timed
fault is a callback on the clock, e.g.
``sim.call_at(t, lambda: system.crash_peer(peer))``.  Message loss is the
event-driven transport's own (``AsyncNetwork.drop_probability``).
"""

from __future__ import annotations

__all__ = ["FaultInjector"]


class FaultInjector:
    """Crash and grey-failure state: the crashed set every
    :class:`~repro.net.transport.PeerNetwork` of a system shares, and the
    slow set :class:`~repro.sim.network.AsyncNetwork` reads."""

    def __init__(self) -> None:
        self._crashed: set[int] = set()
        #: Bumped by every :meth:`crash` / :meth:`recover`: what was
        #: derived from the crashed set is then stale.
        self.crash_epoch = 0
        #: peer_id -> (latency multiplier, service-time multiplier)
        self._slowed: dict[int, tuple[float, float]] = {}

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
