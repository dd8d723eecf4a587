"""Event-driven message transport.

Where :class:`~repro.net.transport.SimulatedNetwork` delivers synchronously
and instantly (right for hop-count experiments), :class:`AsyncNetwork`
delivers over the same peer directory
(:class:`~repro.net.transport.PeerNetwork`) on a
:class:`~repro.sim.kernel.Simulator` clock: every message
takes latency sampled from a :class:`~repro.net.latency.LatencyModel`,
may be dropped in flight, and is silently swallowed by a crashed recipient.
Requests therefore need timeouts: :meth:`request` runs the
:class:`~repro.sim.policies.Request` lifecycle over one exchange (what
:meth:`send` returns) per attempt, and rejects with
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


class _Exchange(SimFuture):
    """One request and its reply on an :class:`AsyncNetwork`: the exchange
    is its own future, and its methods are its events.  Made as an
    attempt of a :class:`~repro.sim.policies.Request`, it reports to
    ``request.landed`` instead of settling; once cancelled, it ignores
    whatever lands later."""

    __slots__ = (
        "net", "message", "reply_size", "request", "attempt", "sent_at",
        "lost", "queue", "reply", "refusal",
    )

    def __init__(
        self, net: "AsyncNetwork", sender: int, recipient: int, kind: str,
        payload: Any, size_bytes: int, reply_size: int,
        request: Request | None, attempt: int, sent_at: float,
    ) -> None:
        self.done = self.failed = self.cancelled = False
        self._value = self._error = self.queue = None
        self._callbacks = []
        self.net = net
        self.reply_size = reply_size
        self.request = request
        self.attempt = attempt
        self.sent_at = sent_at
        if recipient not in net._handlers:
            self.land(None, UnknownPeerError(recipient))
            return
        self.message = Message(sender, recipient, kind, payload, size_bytes)
        self.post(self.message, self.deliver)

    def post(self, message: Message, event: Callable[[], None]) -> None:
        """Charge one leg, draw its loss, and run ``event`` when it lands."""
        net, sender, recipient = self.net, message.sender, message.recipient
        delay = net.latency.sample_ms(sender, recipient) * net.faults.link_factor(
            sender, recipient
        )
        net.stats.record(message, delay)
        self.lost = net.drops_delivery()
        sim = net.sim
        sim.call_at(sim.now + delay, event)

    def deliver(self) -> None:
        net = self.net
        recipient = self.message.recipient
        # Lost in flight, crashed, or unregistered while in flight.
        if self.lost or net.faults.is_crashed(recipient) or recipient not in net._handlers:
            net.stats.drops += 1
            return
        if net.queue_capacity == 0:
            self.serve()
            return
        queue = net._queues.get(recipient)
        if queue is None:
            queue = net._queues[recipient] = _ServiceQueue()
        if queue.backlog >= net.queue_capacity:
            net.stats.busy_shed += 1
            self.respond("-busy", None, PeerBusyError(recipient), BUSY_REPLY_BYTES)
            return
        queue.backlog += 1
        sim = net.sim
        done = max(queue.free_at, sim.now) + net.service_time_ms * net.faults.service_factor(
            recipient
        )
        queue.free_at = done
        self.queue = queue
        sim.call_later(done - sim.now, self.serve)

    def serve(self) -> None:
        net = self.net
        recipient = self.message.recipient
        if self.queue is not None:
            self.queue.backlog -= 1
        if net.faults.is_crashed(recipient):
            # Crashed after the request arrived (possibly mid-queue).
            net.stats.drops += 1
            return
        handler = net._handlers.get(recipient)
        if handler is None:
            net.stats.drops += 1
            return
        self.respond("-reply", handler(self.message), None, self.reply_size)

    def respond(
        self, suffix: str, reply: Any, refusal: BaseException | None, size: int
    ) -> None:
        message = self.message
        self.reply, self.refusal = reply, refusal
        self.post(
            Message(message.recipient, message.sender, message.kind + suffix, reply, size),
            self.deliver_reply,
        )

    def deliver_reply(self) -> None:
        net = self.net
        if self.lost:
            net.stats.drops += 1
            return
        if net.faults.is_crashed(self.message.sender):
            # The requester crashed while the exchange was in flight;
            # running its continuation would hand a reply to a dead peer.
            net.stats.replies_to_dead += 1
            return
        self.land(self.reply, self.refusal)

    def land(self, value: Any, error: BaseException | None) -> None:
        if self.done:
            return  # cancelled: nobody waits for this attempt any more
        if self.request is None:
            self._settle(value, error)
            return
        self.done = True  # the request will not cancel it now
        self.request.landed(self.attempt, self.sent_at, value, error)


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
        return _Exchange(
            self, sender, recipient, kind, payload, size_bytes, reply_size_bytes,
            None, 0, 0.0,
        )

    def _attempt(self, request: Request, attempt: int, sent_at: float) -> SimFuture[Any]:
        return _Exchange(
            self, request.sender, request.recipient, request.kind, request.payload,
            request.size_bytes, 64, request, attempt, sent_at,
        )

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
