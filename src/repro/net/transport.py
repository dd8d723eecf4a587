"""The in-process transport: the engine's interface and the peer directory.

A :class:`Transport` is everything the query engine needs from a network:
a clock, liveness, timers, routed travel along an overlay path, and a
request/reply primitive that settles a :class:`~repro.sim.futures.SimFuture`.
:class:`PeerNetwork` holds, once, what both in-process networks share —
the peers' handlers, who is crashed (one
:class:`~repro.sim.faults.FaultInjector` per system: the synchronous
network builds it, every engine's network runs on it), the latency model,
the traffic counters — and each network adds its delivery discipline:

- :class:`SimulatedNetwork` (here) has no clock of its own (``now()``
  reads the cumulative simulated wire time), timers fire immediately,
  routes land and requests settle before the call returns — so the
  continuation-passing engine executes each lookup chain to completion
  before starting the next, reproducing the classic synchronous path
  exactly.
- :class:`~repro.sim.network.AsyncNetwork` delivers on a
  :class:`~repro.sim.kernel.Simulator`.  Timers and requests settle at
  later virtual instants, so the ``l`` chains genuinely interleave.

The third transport, :class:`repro.rpc.client.SocketTransport`, speaks real
asyncio TCP sockets and lives with the client (it needs the wire protocol
and a membership mirror).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro.errors import PeerUnavailableError, UnknownPeerError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)
from repro.sim.faults import FaultInjector
from repro.sim.futures import SimFuture
from repro.sim.policies import Request, RetryPolicy

__all__ = ["DONE", "Observer", "PeerNetwork", "SimulatedNetwork", "TrafficStats", "Transport"]

Handler = Callable[[Message], Any]

#: Observer callback: ``(event_name, attrs)`` — the engine turns these into
#: ``net-*`` trace events on the active chain span.
Observer = Callable[[str, dict], None]


class TrafficStats(RegistryBackedCounters):
    """Counters the transport maintains as messages flow.

    Every field is served from a :class:`~repro.obs.MetricsRegistry`
    counter (``<namespace>.<field>``), so the transport's accounting
    shows up in the system's unified metric exports; a standalone
    ``TrafficStats()`` binds a private registry.  The attribute API
    (``stats.drops += 1``, ``stats.messages = 0``) reads and writes those
    counters' unlabeled series directly.  The ``record*`` methods run once
    per message or overlay hop, so they do not read-modify-write through
    the attributes: each scalar they touch is one ``inc`` on a counter
    bound at construction.
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
    #: Requests whose retry budget ran out in silence (clocked transports).
    timeouts = registry_field("timeouts")
    #: Re-sends after a silent or shed attempt (clocked transports).
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

    def record_exchange(self, kind: str, size_bytes: int, latency_ms: float) -> None:
        """Account for one answered request whose ends are real processes:
        the request frame and the reply frame."""
        self._messages.inc(2)
        self._bytes.inc(size_bytes + 64)
        self._latency_ms.inc(latency_ms)
        self.by_kind[kind] += 1

    def record_routing_hops(
        self, hops: int, size_bytes: int = 32, latency_ms: float = 0.0
    ) -> None:
        """Account for overlay routing traffic (one small message per hop).

        The DHT simulators compute lookups structurally for speed; this
        keeps the traffic totals honest by charging each traversed edge as
        a routing message.  ``latency_ms`` is the *total* wire time of the
        hop sequence (each traversed edge costs real latency, so leaving it
        at zero understates ``latency_ms`` whenever a latency model is in
        play — prefer :meth:`PeerNetwork.charge_route`).
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


class _ImmediateHandle:
    """Cancellation handle for work that already ran."""

    def cancel(self) -> None:  # pragma: no cover - trivial
        pass


#: What ``call_later`` / ``hop`` return when there is nothing to cancel.
DONE = _ImmediateHandle()


class Transport(ABC):
    """What the query engine needs from a network."""

    #: The transport's traffic counters (messages, bytes, failovers).
    stats: TrafficStats

    @abstractmethod
    def now(self) -> float:
        """The transport's clock, in milliseconds.

        Synchronous transports report cumulative simulated wire time, the
        event-driven transport virtual time, the socket transport wall
        time; the engine only ever subtracts two readings.
        """

    @abstractmethod
    def is_alive(self, peer_id: int) -> bool:
        """Whether ``peer_id`` is believed reachable."""

    @abstractmethod
    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        """Schedule ``fn`` after ``delay_ms``; returns a handle with
        ``cancel()``.  A clockless transport runs ``fn`` immediately."""

    @abstractmethod
    def hop(
        self, hop_from: int, hop_to: int, fn: Callable[[float], None]
    ) -> Any:
        """Charge one overlay routing edge, then run ``fn(delay_ms)`` at
        the instant the hop lands.  Returns a cancellable handle."""

    @abstractmethod
    def _forward(
        self, path: Sequence[int], fn: Callable[[list[float]], None]
    ) -> None:
        """Charge every edge of ``path`` at once, then run ``fn(delays)``
        (each edge's wire time, in path order) when the last one lands.
        A one-node path charges nothing and runs ``fn([])`` at once."""

    def travel(
        self, path: Sequence[int], fn: Callable[[list[float]], None]
    ) -> None:
        """Route along ``path`` and run ``fn(delays)`` (each edge's wire
        time, in path order) once, when the last edge lands.

        Routing is reliable — the iterative lookup retries a hop
        internally — so nothing observes a route between its ends: the
        edges up to the owner's predecessor are forwarded in one step
        (:meth:`_forward`), and the last edge, the delivery to the owner,
        is one :meth:`hop`.  That keeps the engine's continuation behind a
        ``hop``, as it was when every edge was one, for whatever wraps
        that call to time the engine apart from the transport (the e2e
        benchmark's tracer).  Every edge is charged once, and no step of a
        route costs in proportion to its length.  A one-node path charges
        nothing and lands at once.
        """
        if len(path) < 2:
            fn([])
            return
        last, owner = path[-2], path[-1]

        def deliver(delays: list[float]) -> None:
            def landed(delay: float) -> None:
                delays.append(delay)
                fn(delays)

            self.hop(last, owner, landed)

        self._forward(path[:-1], deliver)

    def request(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        *,
        size_bytes: int = 64,
        rank: int = 0,
        policy: RetryPolicy | None = None,
        observer: Observer | None = None,
        trace_ctx: Any = None,
    ) -> SimFuture:
        """One request/reply exchange; resolves with the handler's answer
        or rejects when the recipient is unreachable within its budget —
        crashed, unknown to the transport, or silent.

        On a clocked transport this is one
        :class:`~repro.sim.policies.Request` over :meth:`_attempt`, under
        ``policy`` when given, else ``self.policy`` for rank 0 (the owner)
        and the single-attempt ``self.failover_policy`` for the replicas
        down the successor list; ``self.adaptive``, ``self.backoff`` and
        ``self.breaker`` are consulted when set.  ``observer(name, attrs)``
        sees each step (``send``, ``retry``, ``busy``, ``unreachable``,
        ``reply``, ``timeout``, ...).  Transports without timers override
        this: unreachable is an immediate rejection.

        ``trace_ctx`` is an optional distributed-trace context
        (:class:`repro.obs.distributed.TraceContext`).  Only transports
        that cross process boundaries propagate it; the in-process
        transports ignore it because their "peers" share the caller's
        trace object already.
        """
        if policy is None:
            policy = self.policy if rank == 0 else self.failover_policy
        return Request(
            self, sender, recipient, kind, payload, size_bytes, trace_ctx, policy, observer
        )

    def _attempt(self, request: Request, attempt: int, sent_at: float) -> Any:
        """One try of ``request`` on a clocked transport: send it, return
        a handle whose ``cancel()`` abandons it, and report its reply, a
        busy or unreachable rejection, or the peer's own error — never
        silence — to ``request.landed(attempt, sent_at, value, error)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Abandon the requests nobody settled (``self._live``, those the
        engine gave up on): no attempt stays posted, no timer armed."""
        for request in list(self._live):
            request.release()


class PeerNetwork(Transport):
    """The peer directory both in-process networks deliver over.

    Peers register a handler keyed by their overlay id; a
    :class:`~repro.sim.faults.FaultInjector`, which networks may share,
    holds who is crashed.  What a message costs is charged here
    (``stats``, ``latency``); *when* it arrives is the subclass's delivery
    discipline.
    """

    def __init__(
        self, latency: LatencyModel, faults: FaultInjector, stats: TrafficStats
    ) -> None:
        self.latency = latency
        self.faults = faults
        self.stats = stats
        self._handlers: dict[int, Handler] = {}
        self._membership_epoch = 0

    # -- membership ----------------------------------------------------

    def register(self, peer_id: int, handler: Handler) -> None:
        """Attach ``handler`` for messages addressed to ``peer_id``."""
        self._handlers[peer_id] = handler
        self._membership_epoch += 1

    def unregister(self, peer_id: int) -> None:
        """Detach a peer (it stops receiving messages).  Its crash flag
        leaves with it: the same id registered again comes back alive."""
        self._handlers.pop(peer_id, None)
        self.faults.recover(peer_id)
        self._membership_epoch += 1

    def is_registered(self, peer_id: int) -> bool:
        """Whether a peer currently has a handler."""
        return peer_id in self._handlers

    @property
    def peer_count(self) -> int:
        """Number of registered peers."""
        return len(self._handlers)

    # -- faults --------------------------------------------------------

    def crash(self, peer_id: int) -> None:
        """Fail-stop ``peer_id``: it stays registered but answers nothing
        until it recovers."""
        self.faults.crash(peer_id)

    def recover(self, peer_id: int) -> None:
        """Un-crash ``peer_id`` (idempotent)."""
        self.faults.recover(peer_id)

    def is_alive(self, peer_id: int) -> bool:
        """Registered and not currently crashed."""
        return peer_id in self._handlers and not self.faults.is_crashed(peer_id)

    @property
    def liveness_epoch(self) -> int:
        """Moves whenever :meth:`is_alive` may answer differently: on
        :meth:`register` / :meth:`unregister` and on every crash or
        recovery the fault injector performs, through any network that
        shares it."""
        return self._membership_epoch + self.faults.crash_epoch

    # -- accounting ----------------------------------------------------

    def charge_route(self, path: Sequence[int], size_bytes: int = 32) -> float:
        """Account for a routed lookup, edge by edge.

        ``path`` is the node-id sequence a lookup traversed (as reported by
        the overlay); every consecutive pair is charged one routing message
        with latency sampled from the network's model.  Returns the total
        latency of the route in milliseconds.
        """
        return self._charge(self.latency.path_ms(path), size_bytes)

    def hop(
        self, hop_from: int, hop_to: int, fn: Callable[[float], None]
    ) -> Any:
        """A one-edge :meth:`charge_route`, landing at ``now()`` plus its
        delay."""
        delay = self.latency.sample_ms(hop_from, hop_to)
        self.stats.record_routing_hops(1, latency_ms=delay)
        return self._land(self.now() + delay, lambda: fn(delay))

    def _forward(
        self, path: Sequence[int], fn: Callable[[list[float]], None]
    ) -> None:
        """Charge ``path`` as :meth:`charge_route` does, then land it once:
        at ``now()`` plus each edge's delay, added in path order exactly
        as a hop-by-hop walk of the clock would."""
        if len(path) < 2:
            fn([])
            return
        delays = self.latency.path_ms(path)
        self._charge(delays)
        arrival = self.now()
        for delay in delays:
            arrival += delay
        self._land(arrival, lambda: fn(delays))

    def _charge(self, delays: Sequence[float], size_bytes: int = 32) -> float:
        total = 0.0
        for delay in delays:
            total += delay
        self.stats.record_routing_hops(
            len(delays), size_bytes=size_bytes, latency_ms=total
        )
        return total

    @abstractmethod
    def _land(self, arrival: float, fn: Callable[[], None]) -> Any:
        """Run ``fn()`` at clock reading ``arrival``; returns a
        cancellable handle."""


class SimulatedNetwork(PeerNetwork):
    """Synchronous message delivery between registered peers.

    :meth:`send` delivers immediately (simulation time, not wall time)
    and returns the handler's reply, so request/response exchanges read
    naturally at call sites while every message is still counted.  As the
    engine's transport, every exchange completes (and is charged) before
    the call returns, so the engine's continuations run depth-first and a
    query is fully resolved when ``engine.query(...)`` returns its
    (already settled) future.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(
            latency if latency is not None else ConstantLatency(),
            FaultInjector(),
            TrafficStats(registry=registry),
        )
        #: The clock: cumulative wire time, advanced message by message and
        #: edge by edge.  ``stats.latency_ms`` adds a route's forwarded
        #: prefix at once, so it may differ from the clock in the last bits;
        #: and ``stats.reset()`` leaves the clock running.
        self._wire_ms = 0.0

    def send(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        size_bytes: int = 64,
    ) -> Any:
        """Deliver one message and return the recipient handler's result.

        A crashed recipient raises
        :class:`~repro.errors.PeerUnavailableError`: the synchronous
        transport cannot model a silent timeout (there is no clock to
        wait out), so unreachability is immediate and loud — the
        degraded-mode *outcome* matches the event-driven transport, only
        the waiting is elided.
        """
        handler = self._handlers.get(recipient)
        if handler is None:
            raise UnknownPeerError(recipient)
        if self.faults.is_crashed(recipient):
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
        self._wire_ms += delay
        return handler(message)

    # -- the engine's transport: everything settles before returning ----

    def now(self) -> float:
        return self._wire_ms

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        fn()
        return DONE

    def _land(self, arrival: float, fn: Callable[[], None]) -> Any:
        self._wire_ms = arrival
        fn()
        return DONE

    def request(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        *,
        size_bytes: int = 64,
        rank: int = 0,
        policy: RetryPolicy | None = None,
        observer: Observer | None = None,
        trace_ctx: Any = None,
    ) -> SimFuture:
        # No clock, so no retry schedule: ``policy`` is accepted for the
        # signature's sake and ignored.
        future: SimFuture = SimFuture()
        if observer is not None:
            observer("send", {"attempt": 0, "to": recipient, "kind": kind})
        before = self._wire_ms
        try:
            value = self.send(
                sender, recipient, kind, payload=payload, size_bytes=size_bytes
            )
        except (PeerUnavailableError, UnknownPeerError) as exc:
            # No clock, no timeout: unreachability is known immediately,
            # the degenerate zero-budget case of the retry policy.
            future.reject(exc)
            return future
        if observer is not None:
            observer("reply", {"ms": self._wire_ms - before})
        future.resolve(value)
        return future
