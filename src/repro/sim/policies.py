"""Request policies for the clocked transports, and the request that
consults them.

A static :class:`RetryPolicy` treats every destination
and every moment alike: 400 ms of patience whether the peer answers in
5 ms or is drowning.  Under load that is exactly wrong — patience should
track the destination's *observed* behaviour.  This module provides the
three classic adaptive mechanisms, each deterministic under a fixed seed:

- :class:`AdaptiveTimeout` — per-destination Jacobson/Karn RTT estimation
  (EWMA of the round trip plus ``k`` deviations), clamped to a floor and
  ceiling, falling back to the static policy until enough samples arrived;
- :class:`JitteredBackoff` — exponentially growing, randomly jittered
  delays between retry attempts, so synchronized retries do not arrive at
  a struggling peer as a thundering herd (jitter drawn from a named
  :func:`~repro.util.rng.derive_rng` stream, so runs replay exactly);
- :class:`CircuitBreaker` — a per-destination closed → open → half-open
  state machine: after ``failure_threshold`` consecutive failures or busy
  replies the breaker opens and requests fail fast (no message, no retry
  budget spent); after ``cooldown_ms`` a single half-open probe is let
  through, and its outcome either re-closes or re-opens the circuit.

:class:`Request` is where they are consulted: the one request lifecycle
of both clocked transports, each of which supplies only single attempts.

:class:`HedgePolicy` rounds out the set for the query layer: it watches a
live latency histogram and, once warm, yields the delay after which a
straggling lookup chain deserves a backup request (the tail percentile of
past chains), the standard "hedged request" tail-tolerance move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import OpenCircuitError, PeerBusyError, PeerUnavailableError, RequestTimeoutError
from repro.obs.registry import MetricsRegistry
from repro.sim.futures import SimFuture

if TYPE_CHECKING:
    from repro.net.transport import Observer, Transport

__all__ = [
    "RetryPolicy",
    "AdaptiveTimeout",
    "JitteredBackoff",
    "CircuitBreaker",
    "Request",
    "HedgePolicy",
]


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


class AdaptiveTimeout:
    """Per-destination timeout from Jacobson-style RTT estimation.

    Each destination keeps a smoothed RTT and a smoothed deviation,
    updated on every (unambiguous) reply::

        rttvar <- (1 - beta) * rttvar + beta * |srtt - rtt|
        srtt   <- (1 - alpha) * srtt + alpha * rtt

    and the suggested timeout is ``srtt + k * rttvar``, clamped into
    ``[floor_ms, ceiling_ms]``.  Until ``warmup`` samples have been seen
    for a destination, :meth:`timeout_ms` returns ``None`` and the caller
    falls back to its static policy — a cold estimator must not shrink
    patience below what an unknown peer deserves.
    """

    def __init__(
        self,
        k: float = 4.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        floor_ms: float = 50.0,
        ceiling_ms: float = 2_000.0,
        warmup: int = 3,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
            raise ValueError("alpha and beta must be in (0, 1)")
        if floor_ms <= 0 or ceiling_ms < floor_ms:
            raise ValueError("need 0 < floor_ms <= ceiling_ms")
        if warmup < 1:
            raise ValueError("warmup must be at least 1 sample")
        self.k = k
        self.alpha = alpha
        self.beta = beta
        self.floor_ms = floor_ms
        self.ceiling_ms = ceiling_ms
        self.warmup = warmup
        #: peer_id -> (srtt, rttvar, samples)
        self._estimates: dict[int, tuple[float, float, int]] = {}

    def observe(self, peer_id: int, rtt_ms: float) -> None:
        """Feed one measured round trip for ``peer_id``.

        Callers should follow Karn's rule and only feed RTTs that are
        unambiguously attributable to a single transmission.
        """
        if rtt_ms < 0:
            raise ValueError("rtt cannot be negative")
        state = self._estimates.get(peer_id)
        if state is None:
            self._estimates[peer_id] = (rtt_ms, rtt_ms / 2.0, 1)
            return
        srtt, rttvar, samples = state
        rttvar = (1.0 - self.beta) * rttvar + self.beta * abs(srtt - rtt_ms)
        srtt = (1.0 - self.alpha) * srtt + self.alpha * rtt_ms
        self._estimates[peer_id] = (srtt, rttvar, samples + 1)

    def samples(self, peer_id: int) -> int:
        """How many RTTs have been observed for ``peer_id``."""
        state = self._estimates.get(peer_id)
        return state[2] if state is not None else 0

    def srtt_ms(self, peer_id: int) -> float | None:
        """The smoothed RTT estimate, or None before any sample."""
        state = self._estimates.get(peer_id)
        return state[0] if state is not None else None

    def timeout_ms(self, peer_id: int) -> float | None:
        """The adaptive timeout for ``peer_id``, or None until warm."""
        state = self._estimates.get(peer_id)
        if state is None or state[2] < self.warmup:
            return None
        srtt, rttvar, _ = state
        return min(self.ceiling_ms, max(self.floor_ms, srtt + self.k * rttvar))

    def forget(self, peer_id: int) -> None:
        """Drop the estimate for a departed/recovered peer (idempotent)."""
        self._estimates.pop(peer_id, None)


class JitteredBackoff:
    """Exponential retry delays with deterministic jitter.

    Retry ``i`` (0-based) waits ``base_ms * factor**i`` scaled by a jitter
    draw uniform in ``[1 - jitter, 1]``, capped at ``cap_ms`` before
    jittering.  Drawing from a :func:`~repro.util.rng.derive_rng` stream
    named per instance keeps a seeded simulation bit-replayable while
    still desynchronizing the retries of different requesters (give each
    its own ``name``).
    """

    def __init__(
        self,
        base_ms: float = 50.0,
        factor: float = 2.0,
        jitter: float = 0.5,
        cap_ms: float = 5_000.0,
        seed: int = 0,
        name: str = "sim/backoff",
    ) -> None:
        if base_ms <= 0:
            raise ValueError("base delay must be positive")
        if factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if cap_ms < base_ms:
            raise ValueError("cap cannot undercut the base delay")
        from repro.util.rng import derive_rng

        self.base_ms = base_ms
        self.factor = factor
        self.jitter = jitter
        self.cap_ms = cap_ms
        self._rng = derive_rng(seed, name)

    def delay_ms(self, retry: int) -> float:
        """The wait before 0-based retry number ``retry`` (consumes one
        jitter draw, so call exactly once per scheduled retry)."""
        if retry < 0:
            raise ValueError("retry index cannot be negative")
        nominal = min(self.cap_ms, self.base_ms * self.factor**retry)
        if self.jitter == 0.0:
            return nominal
        scale = 1.0 - self.jitter * float(self._rng.random())
        return nominal * scale


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class _BreakerState:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-destination closed → open → half-open failure isolation.

    ``allow(peer)`` gates every send: a closed breaker always admits; an
    open one refuses (fail-fast, counted as ``<ns>.fast_failures``) until
    ``cooldown_ms`` of virtual time has passed, at which point exactly one
    half-open *probe* is admitted.  The probe's outcome — reported via
    :meth:`record_success` / :meth:`record_failure`, like every attempt —
    re-closes the circuit or re-opens it for another cooldown.

    ``transition_hook(peer_id, old_state, new_state)``, when set, fires on
    every state change (the query layer uses it for ``breaker-open`` trace
    events).  Transition tallies are published to the registry as
    ``<namespace>.opened`` / ``reclosed`` / ``probes`` / ``fast_failures``
    plus the ``<namespace>.open_now`` gauge.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        failure_threshold: int = 5,
        cooldown_ms: float = 2_000.0,
        registry: MetricsRegistry | None = None,
        namespace: str = "sim.breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if cooldown_ms <= 0:
            raise ValueError("cooldown must be positive")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.registry = registry if registry is not None else MetricsRegistry()
        self._opened = self.registry.counter(
            f"{namespace}.opened", help="breaker transitions into open"
        )
        self._reclosed = self.registry.counter(
            f"{namespace}.reclosed", help="half-open probes that re-closed a breaker"
        )
        self._probes = self.registry.counter(
            f"{namespace}.probes", help="half-open probe requests admitted"
        )
        self._fast_failures = self.registry.counter(
            f"{namespace}.fast_failures", help="requests refused by an open breaker"
        )
        self._open_now = self.registry.gauge(
            f"{namespace}.open_now", help="breakers currently open or half-open"
        )
        self.transition_hook: Callable[[int, str, str], None] | None = None
        self._peers: dict[int, _BreakerState] = {}

    def _state_of(self, peer_id: int) -> _BreakerState:
        state = self._peers.get(peer_id)
        if state is None:
            state = _BreakerState()
            self._peers[peer_id] = state
        return state

    def _transition(self, peer_id: int, state: _BreakerState, new: str) -> None:
        old = state.state
        if old == new:
            return
        state.state = new
        if new == OPEN and old == CLOSED:
            self._open_now.inc()
        elif new == CLOSED:
            self._open_now.inc(-1)
        if self.transition_hook is not None:
            self.transition_hook(peer_id, old, new)

    def state(self, peer_id: int) -> str:
        """Current state name for ``peer_id`` (closed/open/half-open)."""
        state = self._peers.get(peer_id)
        return state.state if state is not None else CLOSED

    def open_peers(self) -> frozenset[int]:
        """Peers whose breaker is currently open or half-open."""
        return frozenset(
            pid for pid, s in self._peers.items() if s.state != CLOSED
        )

    def allow(self, peer_id: int) -> bool:
        """Whether a request to ``peer_id`` may be sent right now.

        Refusals are counted; an open breaker past its cooldown admits a
        single probe (and refuses everything else until it settles).
        """
        state = self._peers.get(peer_id)
        if state is None or state.state == CLOSED:
            return True
        if state.state == OPEN:
            if self.clock() - state.opened_at >= self.cooldown_ms:
                self._transition(peer_id, state, HALF_OPEN)
                state.probing = True
                self._probes.inc()
                return True
            self._fast_failures.inc()
            return False
        # half-open: one probe in flight, everyone else waits
        self._fast_failures.inc()
        return False

    def record_success(self, peer_id: int) -> None:
        """An attempt to ``peer_id`` got a genuine reply."""
        state = self._peers.get(peer_id)
        if state is None:
            return
        state.failures = 0
        state.probing = False
        if state.state != CLOSED:
            self._transition(peer_id, state, CLOSED)
            self._reclosed.inc()

    def record_failure(self, peer_id: int) -> None:
        """An attempt to ``peer_id`` timed out or came back busy."""
        state = self._state_of(peer_id)
        if state.state == HALF_OPEN:
            # The probe failed: straight back to open for another cooldown.
            state.probing = False
            state.opened_at = self.clock()
            self._transition(peer_id, state, OPEN)
            self._opened.inc()
            return
        if state.state == OPEN:
            return  # stragglers from before the breaker opened
        state.failures += 1
        if state.failures >= self.failure_threshold:
            state.opened_at = self.clock()
            self._transition(peer_id, state, OPEN)
            self._opened.inc()

    def reset(self, peer_id: int) -> None:
        """Forget all state for ``peer_id`` (e.g. after it rejoined)."""
        state = self._peers.pop(peer_id, None)
        if state is not None and state.state != CLOSED:
            self._open_now.inc(-1)


class Request(SimFuture):
    """One request on a clocked transport (:class:`~repro.sim.network.AsyncNetwork`,
    :class:`~repro.rpc.client.SocketTransport`), first attempt to settle;
    the request is its own future.

    The transport supplies the attempts (``_attempt``): each sends one,
    returns a handle whose ``cancel()`` abandons it, and reports to
    :meth:`landed` the reply, a busy or unreachable rejection or the
    peer's own error — never silence.  Attempt ``i`` waits the warm
    :class:`AdaptiveTimeout` value times ``policy.backoff**i``, else
    ``policy.timeout_for(i)``; after a timeout or a busy reply the next
    goes out, paced by the :class:`JitteredBackoff`, until the policy's
    attempts are spent.  The :class:`CircuitBreaker` is asked before
    every attempt.  The earliest reply from any attempt wins and every
    answer feeds the estimator (each attempt reports its own send time,
    so its round trip is unambiguous); a failure counts only while its
    attempt is current.  An unreachable rejection or a remote error
    settles the request at once.
    """

    __slots__ = (
        "transport", "sender", "recipient", "kind", "payload", "size_bytes",
        "trace_ctx", "policy", "observer", "started", "attempt", "timer",
        "posted",
    )

    def __init__(
        self, transport: "Transport", sender: int, recipient: int, kind: str,
        payload: Any, size_bytes: int, trace_ctx: Any, policy: RetryPolicy,
        observer: "Observer | None",
    ) -> None:
        # A pending future whose first callback is the release.
        self.done = self.failed = self.cancelled = False
        self._value = self._error = None
        self._callbacks = [self.release]
        self.transport = transport
        self.sender = sender
        self.recipient = recipient
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.trace_ctx = trace_ctx
        self.policy = policy
        self.observer = observer
        self.started = transport.now()
        #: The current attempt, and its patience timer (or its backoff).
        self.attempt = 0
        self.timer: Any = None
        self.posted: list = []
        transport._live.add(self)
        self.launch()

    def notify(self, name: str, **attrs: Any) -> None:
        if self.observer is not None:
            self.observer(name, attrs)

    def launch(self) -> None:
        """Post the current attempt, unless the breaker refuses it."""
        transport, recipient, attempt = self.transport, self.recipient, self.attempt
        if transport.breaker is not None and not transport.breaker.allow(recipient):
            self.notify("breaker-open", to=recipient)
            self.reject(OpenCircuitError(recipient))
            return
        patience = self.policy.timeout_for(attempt)
        if transport.adaptive is not None:
            warm = transport.adaptive.timeout_ms(recipient)
            if warm is not None:
                patience = warm * self.policy.backoff**attempt
        # The first attempt leaves the instant the request starts.
        sent_at = self.started if attempt == 0 else transport.now()
        if self.observer is not None:
            self.observer("send", {"attempt": attempt, "to": recipient, "kind": self.kind})
        self.posted.append(transport._attempt(self, attempt, sent_at))
        if not self.done:  # an unknown recipient fails the attempt on the spot
            self.timer = transport.call_later(patience, self.fail)

    def landed(
        self, attempt: int, sent_at: float, value: Any, error: BaseException | None
    ) -> None:
        """Attempt ``attempt``, posted at ``sent_at``, settled."""
        if self.done:
            return
        transport, recipient = self.transport, self.recipient
        if error is not None:
            if attempt != self.attempt:
                return  # superseded: the retry decides
            if self.timer is not None:
                self.timer.cancel()
            if isinstance(error, PeerBusyError):
                self.fail(error)
                return
            if isinstance(error, PeerUnavailableError):
                self.notify("unreachable", to=recipient)
            self.reject(error)
            return
        if transport.adaptive is not None:
            transport.adaptive.observe(recipient, transport.now() - sent_at)
        if transport.breaker is not None:
            transport.breaker.record_success(recipient)
        if self.observer is not None:
            self.observer("reply", {"ms": transport.now() - self.started})
        # Attempt ``i`` is ``posted[i]``, and the one that answered needs
        # no cancelling when the request releases the others.
        del self.posted[attempt]
        self.resolve(value)

    def fail(self, busy: PeerBusyError | None = None) -> None:
        """The current attempt's patience ran out (its reply may still win)
        or it came back ``busy``: retry after the backoff, or give up."""
        transport, recipient = self.transport, self.recipient
        if transport.breaker is not None:
            transport.breaker.record_failure(recipient)
        if busy is not None:
            self.notify("busy", peer=recipient, attempt=self.attempt)
        self.attempt += 1
        if self.attempt >= self.policy.total_attempts:
            waited = transport.now() - self.started
            if busy is not None:
                self.notify("busy-exhausted", attempts=self.attempt, waited_ms=waited)
                self.reject(busy)
                return
            transport.stats.timeouts += 1
            self.notify("timeout", attempts=self.attempt, waited_ms=waited)
            self.reject(RequestTimeoutError(recipient, self.attempt, waited))
            return
        transport.stats.retries += 1
        self.notify("retry", attempt=self.attempt)
        if transport.backoff is None:
            self.launch()
        else:
            delay = transport.backoff.delay_ms(self.attempt - 1)
            self.timer = transport.call_later(delay, self.launch)

    def release(self, _settled: SimFuture | None = None) -> None:
        """Settled, cancelled or closed: disarm, and drop every attempt."""
        self.transport._live.discard(self)
        if self.timer is not None:
            self.timer.cancel()
        for posted in self.posted:
            posted.cancel()


class HedgePolicy:
    """When to launch a backup request for a straggling lookup chain.

    The policy owns a live histogram of past chain latencies (published to
    the registry as ``sim.query.chain_ms``); once at least ``min_samples``
    chains have been observed, :meth:`delay_ms` yields the ``percentile``
    tail latency (clamped to ``[floor_ms, ceiling_ms]``) — a chain still
    unanswered after that long is in the tail, and a hedge down the
    replica list is worth its extra message.  Before warmup it yields
    ``None``: hedging off, no guessing.
    """

    def __init__(
        self,
        percentile: float = 95.0,
        min_samples: int = 20,
        floor_ms: float = 50.0,
        ceiling_ms: float = 5_000.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if min_samples < 1:
            raise ValueError("min_samples must be at least 1")
        if floor_ms <= 0 or ceiling_ms < floor_ms:
            raise ValueError("need 0 < floor_ms <= ceiling_ms")
        self.percentile = percentile
        self.min_samples = min_samples
        self.floor_ms = floor_ms
        self.ceiling_ms = ceiling_ms
        self.registry = registry if registry is not None else MetricsRegistry()
        self._chain_ms = self.registry.histogram(
            "sim.query.chain_ms", help="per-chain match latency samples"
        )

    def observe(self, chain_ms: float) -> None:
        """Feed the match-phase latency of one completed chain."""
        self._chain_ms.observe(chain_ms)

    @property
    def warm(self) -> bool:
        """Whether enough chains were observed to trust the tail."""
        return self._chain_ms.count() >= self.min_samples

    def delay_ms(self) -> float | None:
        """Hedge delay for the next chain, or None until warm."""
        if not self.warm:
            return None
        tail = self._chain_ms.quantile(self.percentile / 100)
        return min(self.ceiling_ms, max(self.floor_ms, tail))
