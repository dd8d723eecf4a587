"""Event-driven message transport.

Where :class:`~repro.net.transport.SimulatedNetwork` delivers synchronously
and instantly (right for hop-count experiments), :class:`AsyncNetwork`
delivers over the same peer directory
(:class:`~repro.net.transport.PeerNetwork`) on a
:class:`~repro.sim.kernel.Simulator` clock: every message
takes latency sampled from a :class:`~repro.net.latency.LatencyModel`,
may be dropped in flight, and is silently swallowed by a crashed recipient.
Requests therefore need timeouts — :meth:`request` arms a retry schedule
(:class:`RetryPolicy`) and rejects with
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

Grey failures registered with the :class:`~repro.sim.faults.FaultInjector`
inflate link latency (worse endpoint wins) and service time.  Traffic
accounting reuses :class:`~repro.net.transport.TrafficStats`; messages are
charged at send time (the wire carries a lost packet just the same) and
drops/retries/timeouts/sheds are counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import (
    OpenCircuitError,
    PeerBusyError,
    RequestTimeoutError,
    UnknownPeerError,
)
from repro.net.latency import LatencyModel, SeededLatency
from repro.net.message import Message
from repro.net.transport import Observer, PeerNetwork, TrafficStats
from repro.obs.registry import MetricsRegistry
from repro.sim.faults import FaultInjector
from repro.sim.futures import SimFuture
from repro.sim.kernel import Simulator, Timer
from repro.sim.policies import AdaptiveTimeout, CircuitBreaker, JitteredBackoff

__all__ = ["AsyncNetwork", "RetryPolicy"]

#: Size of the busy reply a shedding peer sends (it carries no payload).
BUSY_REPLY_BYTES = 16


@dataclass(frozen=True)
class RetryPolicy:
    """How long to wait for a reply, and how stubbornly to re-ask.

    Attempt ``i`` (0-based) waits ``timeout_ms * backoff**i`` before giving
    up on it; after ``max_retries`` re-sends the request as a whole fails.
    The defaults suit a wide-area RTT of ~100-200 ms.
    """

    timeout_ms: float = 400.0
    max_retries: int = 2
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")

    @property
    def total_attempts(self) -> int:
        """Sends performed before the request fails."""
        return self.max_retries + 1

    def timeout_for(self, attempt: int) -> float:
        """Patience for the given 0-based attempt."""
        return self.timeout_ms * self.backoff**attempt

    def worst_case_ms(self) -> float:
        """Total virtual time a request can occupy before rejecting."""
        return sum(self.timeout_for(i) for i in range(self.total_attempts))


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
            FaultInjector(drop_probability, seed=seed),
            # Namespaced apart from the synchronous transport's "net.*" so
            # a system running both keeps the two accountings distinct in
            # one shared registry.
            TrafficStats(registry=registry, namespace="sim.net"),
        )
        self.sim = sim
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
        self._queues: dict[int, _ServiceQueue] = {}

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
        dropped_out = self.faults.drops_delivery()

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
            dropped_back = self.faults.drops_delivery()

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

    def request(
        self,
        sender: int,
        recipient: int,
        kind: str,
        payload: Any = None,
        *,
        size_bytes: int = 64,
        reply_size_bytes: int = 64,
        rank: int = 0,
        policy: RetryPolicy | None = None,
        observer: Observer | None = None,
        trace_ctx: Any = None,
    ) -> SimFuture[Any]:
        """A reliable-ish exchange: :meth:`send` under a retry schedule —
        ``policy`` when given, else the network's :attr:`policy` for the
        owner (``rank`` 0) and its :attr:`failover_policy` for replicas.

        Resolves with the first reply to arrive (late replies from earlier
        attempts count); rejects with
        :class:`~repro.errors.RequestTimeoutError` when every attempt's
        patience runs out, with :class:`~repro.errors.PeerBusyError` when
        the final attempt was shed, or immediately with
        :class:`~repro.errors.OpenCircuitError` when the destination's
        circuit breaker refuses the send (no retry budget consumed).

        When the network carries adaptive policies, each attempt's
        patience comes from the destination's RTT estimate once warm
        (scaled by the policy's backoff for later attempts), retries are
        paced by the jittered backoff, and every outcome feeds the
        breaker.  Cancelling the returned future releases its pending
        timer — hedged lookups rely on that to not leak virtual-time work.

        ``observer(name, attrs)`` — when given — is called at each
        lifecycle step, at the virtual time it happens: ``send`` per
        attempt launched, ``retry`` when a timed-out attempt re-sends,
        ``busy`` when an attempt came back shed, ``breaker-open`` on a
        fail-fast refusal, ``reply`` when the winning reply lands,
        ``timeout`` when the request as a whole gives up.  The tracing
        layer maps these onto span events.
        """
        if policy is None:
            policy = self.policy if rank == 0 else self.failover_policy
        out: SimFuture[Any] = SimFuture()
        started = self.sim.now
        attempt_no = 0
        pending_timer: list[Timer | None] = [None]

        def notify(name: str, **attrs) -> None:
            if observer is not None:
                observer(name, attrs)

        def timeout_for(attempt: int) -> float:
            if self.adaptive is not None:
                warm = self.adaptive.timeout_ms(recipient)
                if warm is not None:
                    return warm * policy.backoff**attempt
            return policy.timeout_for(attempt)

        def launch_attempt() -> None:
            if self.breaker is not None and not self.breaker.allow(recipient):
                notify("breaker-open", to=recipient)
                out.reject(OpenCircuitError(recipient))
                return
            attempt_started = self.sim.now
            notify("send", attempt=attempt_no, to=recipient, kind=kind)
            inner = self.send(
                sender,
                recipient,
                kind,
                payload=payload,
                size_bytes=size_bytes,
                reply_size_bytes=reply_size_bytes,
            )
            timer = self.sim.call_later(timeout_for(attempt_no), on_timeout)
            pending_timer[0] = timer

            def on_reply(settled: SimFuture[Any]) -> None:
                timer.cancel()
                if out.done:
                    return  # duplicate reply after a retry already won
                if settled.failed:
                    error = settled.exception()
                    if isinstance(error, PeerBusyError):
                        if self.breaker is not None:
                            self.breaker.record_failure(recipient)
                        notify("busy", peer=recipient, attempt=attempt_no)
                        fail_attempt(error)
                        return
                    out.reject(error)  # type: ignore[arg-type]
                    return
                if self.adaptive is not None:
                    # Each attempt has its own future, so this RTT is
                    # unambiguously attributable (Karn's concern is moot).
                    self.adaptive.observe(recipient, self.sim.now - attempt_started)
                if self.breaker is not None:
                    self.breaker.record_success(recipient)
                notify("reply", ms=self.sim.now - started)
                out.resolve(settled.result())

            inner.add_done_callback(on_reply)

        def fail_attempt(error: BaseException | None) -> None:
            nonlocal attempt_no
            attempt_no += 1
            if attempt_no >= policy.total_attempts:
                waited = self.sim.now - started
                if isinstance(error, PeerBusyError):
                    notify("busy-exhausted", attempts=attempt_no, waited_ms=waited)
                    out.reject(error)
                    return
                self.stats.timeouts += 1
                notify("timeout", attempts=attempt_no, waited_ms=waited)
                out.reject(RequestTimeoutError(recipient, attempt_no, waited))
                return
            self.stats.retries += 1
            notify("retry", attempt=attempt_no)
            if self.backoff is not None:
                delay = self.backoff.delay_ms(attempt_no - 1)
                pending_timer[0] = self.sim.call_later(delay, launch_attempt)
            else:
                launch_attempt()

        def on_timeout() -> None:
            if out.done:
                return
            if self.breaker is not None:
                self.breaker.record_failure(recipient)
            fail_attempt(None)

        def release_timer(_: SimFuture[Any]) -> None:
            timer = pending_timer[0]
            if timer is not None:
                timer.cancel()

        # Runs on every settle (reply, rejection, *cancellation*): the
        # pending timeout/backoff timer must not outlive the request.
        out.add_done_callback(release_timer)
        launch_attempt()
        return out

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
