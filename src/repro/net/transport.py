"""The simulated transport: synchronous delivery with full accounting."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import PeerUnavailableError, UnknownPeerError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)

__all__ = ["SimulatedNetwork", "TrafficStats"]

Handler = Callable[[Message], Any]


class TrafficStats(RegistryBackedCounters):
    """Counters the transport maintains as messages flow.

    Every field is served from a :class:`~repro.obs.MetricsRegistry`
    counter (``<namespace>.<field>``), so the transport's accounting
    shows up in the system's unified metric exports; a standalone
    ``TrafficStats()`` binds a private registry.  The attribute API
    (``stats.drops += 1``, ``stats.messages = 0``) reads and writes those
    counters' unlabeled series directly.  :meth:`record` and
    :meth:`record_routing_hops` run once per message and per overlay hop,
    so they do not read-modify-write through the attributes: each scalar
    they touch is one ``inc`` on a counter bound at construction.
    """

    SCALAR_FIELDS = (
        "messages",
        "bytes",
        "latency_ms",
        "drops",
        "timeouts",
        "retries",
        "failovers",
        "failover_exhausted",
        "replica_stores",
        "busy_shed",
        "hedges",
        "hedge_wins",
        "replies_to_dead",
    )

    messages = registry_field("messages")
    bytes = registry_field("bytes")
    latency_ms = registry_field("latency_ms")
    #: Messages lost in flight (event-driven transport only).
    drops = registry_field("drops")
    #: Requests whose retry budget was exhausted (event-driven transport only).
    timeouts = registry_field("timeouts")
    #: Re-sends after an unanswered attempt (event-driven transport only).
    retries = registry_field("retries")
    #: Lookups answered by a successor-list replica after the identifier's
    #: owner was unreachable.
    failovers = registry_field("failovers")
    #: Lookups that exhausted every replica without an answer.
    failover_exhausted = registry_field("failover_exhausted")
    #: Store placements addressed to non-primary replicas.
    replica_stores = registry_field("replica_stores")
    #: Requests shed by a peer whose bounded service queue was full
    #: (event-driven transport only) — explicit back-pressure, counted
    #: apart from silent timeouts.
    busy_shed = registry_field("busy_shed")
    #: Backup lookups launched for straggling chains (event-driven only).
    hedges = registry_field("hedges")
    #: Hedged lookups whose backup answered first.
    hedge_wins = registry_field("hedge_wins")
    #: Replies dropped because the requester crashed while its request
    #: was in flight (event-driven transport only).
    replies_to_dead = registry_field("replies_to_dead")

    def __init__(
        self, registry: MetricsRegistry | None = None, namespace: str = "net"
    ) -> None:
        self._bind(registry, namespace)
        self._messages = self._scalars["messages"]
        self._bytes = self._scalars["bytes"]
        self._latency_ms = self._scalars["latency_ms"]
        self.by_kind = self._labeled("messages_by_kind", "kind")
        self.sent_by_peer = self._labeled("sent_by_peer", "peer")
        self.received_by_peer = self._labeled("received_by_peer", "peer")

    def record(self, message: Message, latency_ms: float) -> None:
        """Account for one delivered message."""
        self._messages.inc()
        self._bytes.inc(message.size_bytes)
        self._latency_ms.inc(latency_ms)
        self.by_kind[message.kind] += 1
        self.sent_by_peer[message.sender] += 1
        self.received_by_peer[message.recipient] += 1

    def record_routing_hops(
        self, hops: int, size_bytes: int = 32, latency_ms: float = 0.0
    ) -> None:
        """Account for overlay routing traffic (one small message per hop).

        The DHT simulators compute lookups structurally for speed; this
        keeps the traffic totals honest by charging each traversed edge as
        a routing message.  ``latency_ms`` is the *total* wire time of the
        hop sequence (each traversed edge costs real latency, so leaving it
        at zero understates ``latency_ms`` whenever a latency model is in
        play — prefer :meth:`SimulatedNetwork.charge_route`).
        """
        if hops < 0:
            raise ValueError("hops cannot be negative")
        if latency_ms < 0:
            raise ValueError("latency cannot be negative")
        self._messages.inc(hops)
        self._bytes.inc(hops * size_bytes)
        self._latency_ms.inc(latency_ms)
        self.by_kind["route-hop"] += hops

    def reset(self) -> None:
        """Zero every counter (e.g. after a warmup phase)."""
        self.messages = 0
        self.bytes = 0
        self.latency_ms = 0.0
        self.drops = 0
        self.timeouts = 0
        self.retries = 0
        self.failovers = 0
        self.failover_exhausted = 0
        self.replica_stores = 0
        self.busy_shed = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.replies_to_dead = 0
        self.by_kind.clear()
        self.sent_by_peer.clear()
        self.received_by_peer.clear()


class SimulatedNetwork:
    """Synchronous message delivery between registered peers.

    Peers register a handler keyed by their overlay id; :meth:`send`
    delivers immediately (simulation time, not wall time) and returns the
    handler's reply, so request/response exchanges read naturally at call
    sites while every message is still counted.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._handlers: dict[int, Handler] = {}
        self._crashed: set[int] = set()
        self.latency = latency if latency is not None else ConstantLatency()
        self.stats = TrafficStats(registry=registry)

    def register(self, peer_id: int, handler: Handler) -> None:
        """Attach ``handler`` for messages addressed to ``peer_id``."""
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: int) -> None:
        """Detach a peer (it stops receiving messages)."""
        self._handlers.pop(peer_id, None)
        self._crashed.discard(peer_id)

    def is_registered(self, peer_id: int) -> bool:
        """Whether a peer currently has a handler."""
        return peer_id in self._handlers

    # -- faults (mirrors AsyncNetwork's crash surface) -----------------

    def crash(self, peer_id: int) -> None:
        """Fail-stop ``peer_id``: sends to it raise
        :class:`~repro.errors.PeerUnavailableError` until it recovers.

        The synchronous transport cannot model a silent timeout (there is
        no clock to wait out), so unreachability is immediate and loud —
        the degraded-mode *outcome* matches the event-driven transport,
        only the waiting is elided.
        """
        self._crashed.add(peer_id)

    def recover(self, peer_id: int) -> None:
        """Un-crash ``peer_id`` (idempotent)."""
        self._crashed.discard(peer_id)

    def is_alive(self, peer_id: int) -> bool:
        """Registered and not currently crashed."""
        return peer_id in self._handlers and peer_id not in self._crashed

    def send(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        size_bytes: int = 64,
    ) -> Any:
        """Deliver one message and return the recipient handler's result."""
        handler = self._handlers.get(recipient)
        if handler is None:
            raise UnknownPeerError(recipient)
        if recipient in self._crashed:
            raise PeerUnavailableError(recipient)
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
        )
        delay = self.latency.sample_ms(sender, recipient)
        self.stats.record(message, delay)
        return handler(message)

    def charge_route(self, path: Sequence[int], size_bytes: int = 32) -> float:
        """Account for a routed lookup, edge by edge.

        ``path`` is the node-id sequence a lookup traversed (as reported by
        the overlay); every consecutive pair is charged one routing message
        with latency sampled from the network's model.  Returns the total
        latency of the route in milliseconds.
        """
        total = 0.0
        for hop_from, hop_to in zip(path, path[1:]):
            total += self.latency.sample_ms(hop_from, hop_to)
        self.stats.record_routing_hops(
            max(0, len(path) - 1), size_bytes=size_bytes, latency_ms=total
        )
        return total

    @property
    def peer_count(self) -> int:
        """Number of registered peers."""
        return len(self._handlers)
