"""Event-driven message transport.

Where :class:`~repro.net.transport.SimulatedNetwork` delivers synchronously
and instantly (right for hop-count experiments), :class:`AsyncNetwork`
delivers over the same peer directory
(:class:`~repro.net.transport.PeerNetwork`) on a
:class:`~repro.sim.kernel.Simulator` clock: every message
takes latency sampled from a :class:`~repro.net.latency.LatencyModel`,
may be dropped in flight, and is silently swallowed by a crashed recipient.
Requests therefore need timeouts: :meth:`request` runs the
:class:`~repro.sim.policies.Request` lifecycle over one :meth:`send` per
attempt, and rejects with
:class:`~repro.errors.RequestTimeoutError` once it is exhausted.

Two overload mechanisms extend the base model, both off by default:

- **bounded service queues** (``queue_capacity`` + ``service_time_ms``):
  each peer serves requests one at a time; arrivals queue behind the
  in-service request (so load shows up as queueing delay) and arrivals
  that find the queue full are *shed* — the peer sends a small busy reply
  and the requester's future rejects with
  :class:`~repro.errors.PeerBusyError`, counted as ``busy_shed`` apart
  from silent timeouts;
- **adaptive request policies** (:mod:`repro.sim.policies`): attach an
  :class:`~repro.sim.policies.AdaptiveTimeout`,
  :class:`~repro.sim.policies.JitteredBackoff` and/or
  :class:`~repro.sim.policies.CircuitBreaker` to the network and every
  :meth:`request` consults them — per-destination patience, paced
  retries, and fail-fast refusal (:class:`~repro.errors.OpenCircuitError`)
  toward destinations that keep failing.

An engine's network runs on its system's
:class:`~repro.sim.faults.FaultInjector` (one crashed set per system);
loss is the network's own, drawn from one seeded stream.  Grey failures
registered with the injector inflate link latency (worse endpoint wins)
and service time.  Traffic accounting reuses
:class:`~repro.net.transport.TrafficStats`; messages are charged at send
time (the wire carries a lost packet just the same) and
drops/retries/timeouts/sheds are counted separately.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import PeerBusyError, UnknownPeerError
from repro.net.latency import LatencyModel, SeededLatency
from repro.net.message import Message
from repro.net.transport import PeerNetwork, TrafficStats
from repro.obs.registry import MetricsRegistry
from repro.sim.faults import FaultInjector
from repro.sim.futures import SimFuture
from repro.sim.kernel import Simulator, Timer
from repro.sim.policies import (
    AdaptiveTimeout,
    CircuitBreaker,
    JitteredBackoff,
    Request,
    RetryPolicy,
)
from repro.util.rng import derive_rng

__all__ = ["AsyncNetwork", "RetryPolicy"]

#: Size of the busy reply a shedding peer sends (it carries no payload).
BUSY_REPLY_BYTES = 16


class _ServiceQueue:
    """One peer's bounded single-server queue state."""

    __slots__ = ("backlog", "free_at")

    def __init__(self) -> None:
        self.backlog = 0  # requests queued or in service
        self.free_at = 0.0  # virtual time the server next idles


class AsyncNetwork(PeerNetwork):
    """Peers exchanging delayed, droppable messages on a virtual clock."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        drop_probability: float = 0.0,
        seed: int = 0,
        registry: "MetricsRegistry | None" = None,
        queue_capacity: int = 0,
        service_time_ms: float = 0.0,
        policy: RetryPolicy | None = None,
        failover_policy: RetryPolicy | None = None,
    ) -> None:
        if queue_capacity < 0:
            raise ValueError("queue capacity cannot be negative")
        if service_time_ms < 0:
            raise ValueError("service time cannot be negative")
        if queue_capacity > 0 and service_time_ms <= 0:
            # With zero service time same-instant arrivals would race the
            # zero-delay completion events and shed nondeterministically.
            raise ValueError("a bounded queue needs a positive service time")
        super().__init__(
            latency if latency is not None else SeededLatency(seed=seed),
            faults if faults is not None else FaultInjector(),
            # Namespaced apart from the synchronous transport's "net.*" so
            # a system running both keeps the two accountings distinct in
            # one shared registry.
            TrafficStats(registry=registry, namespace="sim.net"),
        )
        self.sim = sim
        self.drop_probability = drop_probability
        self._loss_rng = derive_rng(seed, "sim/faults")
        #: The retry schedule of a :meth:`request` to an identifier's owner.
        self.policy = policy if policy is not None else RetryPolicy()
        #: Budget for each failover attempt down the successor list: one
        #: try under the base timeout, so a chain's worst case grows
        #: linearly in replicas tried, not multiplicatively.
        self.failover_policy = (
            failover_policy
            if failover_policy is not None
            else RetryPolicy(
                timeout_ms=self.policy.timeout_ms, max_retries=0, backoff=1.0
            )
        )
        #: 0 disables the queue model entirely: handlers run the instant a
        #: request arrives, exactly the pre-overload-layer behaviour.
        self.queue_capacity = queue_capacity
        self.service_time_ms = service_time_ms
        #: Optional adaptive policies consulted by :meth:`request`; all
        #: None by default (static policy, immediate retries, no breaker).
        self.adaptive: AdaptiveTimeout | None = None
        self.backoff: JitteredBackoff | None = None
        self.breaker: CircuitBreaker | None = None
        self._live: set[Request] = set()
        self._queues: dict[int, _ServiceQueue] = {}

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

    def drops_delivery(self) -> bool:
        """Sample whether the next delivery is lost in flight."""
        if self._drop_probability == 0.0:
            return False
        return bool(self._loss_rng.random() < self._drop_probability)

    def unregister(self, peer_id: int) -> None:
        """Detach a peer; its service queue leaves with it."""
        super().unregister(peer_id)
        self._queues.pop(peer_id, None)

    # -- load introspection --------------------------------------------

    def queue_backlog(self, peer_id: int) -> int:
        """Requests currently queued or in service at ``peer_id``."""
        queue = self._queues.get(peer_id)
        return queue.backlog if queue is not None else 0

    # -- delivery ------------------------------------------------------

    def send(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        size_bytes: int = 64,
        reply_size_bytes: int = 64,
    ) -> SimFuture[Any]:
        """One request/reply exchange, no retries.

        Resolves with the recipient handler's return value after a full
        round trip of sampled latency (queueing delay included when the
        service-queue model is on); rejects with
        :class:`~repro.errors.PeerBusyError` if the recipient shed the
        request.  A message lost to a drop or a crashed recipient leaves
        the future pending forever — arming a timeout is the caller's job
        (see :meth:`request`).
        """
        if recipient not in self._handlers:
            future: SimFuture[Any] = SimFuture()
            future.reject(UnknownPeerError(recipient))
            return future
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=kind,
            payload=payload,
            size_bytes=size_bytes,
        )
        future = SimFuture()
        out_delay = self.latency.sample_ms(sender, recipient) * self.faults.link_factor(
            sender, recipient
        )
        self.stats.record(message, out_delay)
        dropped_out = self.drops_delivery()

        def send_reply(
            reply_kind: str,
            reply_payload: Any,
            size: int,
            settle: Callable[[], None],
        ) -> None:
            reply = Message(
                sender=recipient,
                recipient=sender,
                kind=reply_kind,
                payload=reply_payload,
                size_bytes=size,
            )
            back_delay = self.latency.sample_ms(
                recipient, sender
            ) * self.faults.link_factor(recipient, sender)
            self.stats.record(reply, back_delay)
            dropped_back = self.drops_delivery()

            def deliver_reply() -> None:
                if dropped_back:
                    self.stats.drops += 1
                    return
                if self.faults.is_crashed(sender):
                    # The requester crashed while the exchange was in
                    # flight; running its continuation would hand a reply
                    # to a dead peer.
                    self.stats.replies_to_dead += 1
                    return
                settle()

            self.sim.call_later(back_delay, deliver_reply)

        def serve() -> None:
            if self.faults.is_crashed(recipient):
                # Crashed after the request arrived (possibly mid-queue).
                self.stats.drops += 1
                return
            handler = self._handlers.get(recipient)
            if handler is None:
                self.stats.drops += 1
                return
            reply_payload = handler(message)
            send_reply(
                f"{kind}-reply",
                reply_payload,
                reply_size_bytes,
                lambda: future.resolve(reply_payload),
            )

        def deliver() -> None:
            if dropped_out or self.faults.is_crashed(recipient):
                self.stats.drops += 1
                return
            if recipient not in self._handlers:  # unregistered while in flight
                self.stats.drops += 1
                return
            if self.queue_capacity == 0:
                serve()
                return
            queue = self._queues.get(recipient)
            if queue is None:
                queue = _ServiceQueue()
                self._queues[recipient] = queue
            if queue.backlog >= self.queue_capacity:
                self.stats.busy_shed += 1
                send_reply(
                    f"{kind}-busy",
                    None,
                    BUSY_REPLY_BYTES,
                    lambda: future.reject(PeerBusyError(recipient)),
                )
                return
            queue.backlog += 1
            start = max(queue.free_at, self.sim.now)
            done = start + self.service_time_ms * self.faults.service_factor(recipient)
            queue.free_at = done

            def serve_queued() -> None:
                queue.backlog -= 1
                serve()

            self.sim.call_later(done - self.sim.now, serve_queued)

        self.sim.call_later(out_delay, deliver)
        return future

    def _attempt(self, request: Request, attempt: int, sent_at: float) -> SimFuture[Any]:
        posted = self.send(
            request.sender, request.recipient, request.kind, request.payload,
            request.size_bytes,
        )
        posted.add_done_callback(
            lambda settled: settled.cancelled
            or request.landed(attempt, sent_at, settled._value, settled._error)
        )
        return posted

    # -- the engine's transport: timers and routes land on the clock ----

    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> Timer:
        return self.sim.call_later(delay_ms, fn)

    def travel(
        self, path: Sequence[int], fn: Callable[[list[float]], None]
    ) -> None:
        """The whole route forwarded in one step: one charge and one kernel
        event, at the departure time plus each edge's delay in turn.
        Delivering the last edge as a :meth:`hop` of its own, as the
        clockless transports do, would cost a second event per chain."""
        self._forward(path, fn)

    def _land(self, arrival: float, fn: Callable[[], None]) -> Timer:
        return self.sim.call_at(arrival, fn)
