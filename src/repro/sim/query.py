"""The event-driven query path.

The synchronous :meth:`RangeSelectionSystem.query` resolves the ``l``
identifier lookups one after another, which is right for hop *counts* but
says nothing about wall-clock time.  Here the same query procedure runs on
the simulation kernel: every lookup chain (route to the owner, landing at
its last hop's arrival, then a match request under a timeout/retry policy)
progresses concurrently
in virtual time, so a query completes when its *slowest* chain does — the
paper's ``O(log N)`` wall-clock claim — and a crashed owner costs one
timed-out chain, not a hung query.

The procedure itself lives in :class:`repro.rpc.engine.QueryEngine` — the
one implementation shared with the synchronous and socket paths — bound
here to an :class:`~repro.sim.network.AsyncNetwork`, the event-driven
:class:`~repro.net.transport.Transport`.  This module keeps the
simulation-facing surface: fault control, seeded origin choice, open-loop
workloads, and the config-gated overload protections.

Phase accounting per query:

- ``route_ms``  — the slowest chain's hop-by-hop routing time;
- ``match_ms``  — the rest of the locate span (request round trips,
  retries, timeout waits);
- ``fetch_ms``  — retrieving the winning partition's rows (when enabled);
- ``store_ms``  — the store-on-miss fan-out to the ``l`` owners;
- ``total_ms``  — end-to-end virtual time, = locate + fetch + store spans.

Because completion is the *max* over chains, one stalled owner is the whole
query's latency — which makes this layer the right home for the two
tail-tolerance moves (both off by default, enabled via
:class:`~repro.core.config.SystemConfig`):

- **hedged lookups** (``config.hedge``): a chain still unanswered at the
  live p95 of past chains (see :class:`~repro.sim.policies.HedgePolicy`)
  launches a backup request at the next replica down the successor list;
  first answer wins and the loser is cancelled;
- **partial quorum** (``config.quorum = m``): the query answers once ``m``
  of the ``l`` chains replied, provided the best match already clears
  ``config.quorum_threshold`` — the remaining chains are cancelled and the
  result is flagged ``partial``.
"""

from __future__ import annotations

from repro.core.system import (
    SIM_ATTRIBUTE,
    SIM_RELATION,
    RangeSelectionSystem,
)
from repro.net.latency import LatencyModel
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.ranges.interval import IntRange
from repro.rpc.engine import QueryEngine, TimedQueryResult
from repro.sim.futures import SimFuture
from repro.sim.kernel import Simulator
from repro.sim.network import AsyncNetwork, RetryPolicy
from repro.sim.policies import (
    AdaptiveTimeout,
    CircuitBreaker,
    HedgePolicy,
    JitteredBackoff,
)
from repro.util.rng import derive_rng

__all__ = ["AsyncQueryEngine"]

logger = get_logger("sim.query")


class AsyncQueryEngine:
    """Runs a system's query procedure on the discrete-event kernel.

    The engine shares the system's peers, stores, router and hash scheme —
    only the transport differs.  Synchronous calls on the system (warmup,
    churn helpers) remain valid between event-driven queries.
    """

    def __init__(
        self,
        system: RangeSelectionSystem,
        sim: Simulator | None = None,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        policy: RetryPolicy | None = None,
        failover_policy: RetryPolicy | None = None,
        seed: int | None = None,
        fetch_rows: bool = False,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.system = system
        self.sim = sim if sim is not None else Simulator()
        if seed is None:
            seed = system.config.seed
        config = system.config
        bound_registry = registry if registry is not None else system.metrics
        # The engine's transport publishes into the system's unified
        # registry (as "sim.net.*") unless told otherwise.
        self.net = self.transport = AsyncNetwork(
            self.sim,
            latency=latency,
            drop_probability=drop_probability,
            seed=seed,
            registry=bound_registry,
            queue_capacity=config.peer_queue,
            service_time_ms=(
                1000.0 / config.service_rate if config.service_rate > 0 else 0.0
            ),
            policy=policy,
            failover_policy=failover_policy,
        )
        # Overload protections, all config-gated so the default config
        # leaves the event-driven path byte-identical to the base model.
        if config.adaptive_timeout:
            self.net.adaptive = AdaptiveTimeout()
            self.net.backoff = JitteredBackoff(seed=seed, name="sim/backoff")
        if config.breaker:
            self.net.breaker = CircuitBreaker(clock=self.net.now, registry=bound_registry)
            self.net.breaker.transition_hook = (
                lambda peer, old, new: logger.info(
                    "breaker for peer %d: %s -> %s at t=%.1f",
                    peer, old, new, self.sim.now,
                )
            )
        self.quorum_m = config.quorum
        # The hedge delay is capped at the retry timeout: waiting longer
        # than the timeout to launch a backup is pointless, because at the
        # timeout the original attempt retries or fails over anyway.  The
        # cap also keeps the live-p95 trigger useful when stragglers are
        # common enough (>5% of chains) to contaminate the p95 itself.
        self.hedge: HedgePolicy | None = (
            HedgePolicy(registry=bound_registry, ceiling_ms=self.net.policy.timeout_ms)
            if config.hedge
            else None
        )
        for node_id in system.router.node_ids:
            self.net.register(node_id, system.peer_handler(node_id))
        self._rng = derive_rng(seed, "sim/origins")
        #: :meth:`pick_origin`'s alive peers, and the epochs they date from.
        self._alive: list[int] = []
        self._alive_as_of: tuple[int, int] | None = None
        self._engine = QueryEngine(
            system,
            self.net,
            quorum_m=self.quorum_m,
            quorum_threshold=config.quorum_threshold,
            hedge=self.hedge,
            fetch_rows=fetch_rows,
        )

    # -- fault control -------------------------------------------------

    def crash_peer(self, peer_id: int) -> None:
        """Fail-stop one peer for subsequent (and in-flight) deliveries."""
        self.net.crash(peer_id)

    def recover_peer(self, peer_id: int) -> None:
        """Bring a crashed peer back."""
        self.net.recover(peer_id)

    def slow_peer(
        self,
        peer_id: int,
        latency_factor: float = 1.0,
        service_factor: float = 1.0,
    ) -> None:
        """Grey-fail one peer: inflate its link latency and service time."""
        self.net.faults.slow(peer_id, latency_factor, service_factor)

    def unslow_peer(self, peer_id: int) -> None:
        """Restore a grey-failed peer to full speed."""
        self.net.faults.unslow(peer_id)

    def pick_origin(self) -> int:
        """A uniformly random *alive* querying peer.

        The alive list is rebuilt only after something that can change it
        — a peer joining or leaving the overlay, ``net.register`` /
        ``unregister``, a crash or recovery (direct or scheduled) — and
        always in ring order, so a given RNG state picks the same origin
        it would from a list rebuilt on every call.
        """
        router, net = self.system.router, self.net
        as_of = (router.membership_epoch, net.liveness_epoch)
        if as_of != self._alive_as_of:
            self._alive = [nid for nid in router.node_ids if net.is_alive(nid)]
            self._alive_as_of = as_of
        alive = self._alive
        if not alive:
            raise RuntimeError("no alive peer can originate a query")
        return alive[int(self._rng.integers(len(alive)))]

    # -- the query procedure -------------------------------------------

    def start_trace(self, query: IntRange | None = None, **attrs) -> QueryTrace:
        """A :class:`~repro.obs.QueryTrace` on the simulator's clock.

        Timestamps are virtual milliseconds (``sim.now``), so span
        durations line up with the phase timings of
        :class:`TimedQueryResult`.  Pass the trace to :meth:`query` /
        :meth:`run`.
        """
        if query is not None:
            attrs.setdefault("query", str(query))
        attrs.setdefault("path", "sim")
        return QueryTrace(clock=self.net.now, **attrs)

    def query(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> SimFuture[TimedQueryResult]:
        """Schedule one full query; resolves when all phases finish.

        Drive the simulator (``engine.sim.run()`` or :meth:`run`) to make
        virtual time pass.  A ``trace`` (from :meth:`start_trace`) records
        the whole lifecycle — every chain's route hops, each replica
        attempt with its retries/timeouts, the store fan-out — with events
        timestamped at the virtual instant they happen.
        """
        if origin is None:
            origin = self.pick_origin()
        return self._engine.query(
            query, relation, attribute, origin,
            padding=padding, trace=trace,
        )

    def run(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> TimedQueryResult:
        """Convenience: schedule one query and drive the clock to its end."""
        future = self.query(
            query, relation, attribute, origin=origin, padding=padding,
            trace=trace,
        )
        return self.sim.run_until_complete(future)

    def run_open_loop(
        self,
        queries: "list[IntRange]",
        interval_ms: float,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
    ) -> list[TimedQueryResult]:
        """Issue queries at a fixed arrival rate and run all to completion.

        Query ``i`` *starts* at ``now + i * interval_ms`` regardless of
        whether earlier queries have finished — an open-loop workload, the
        shape that exposes overload: a closed loop (issue, wait, issue)
        self-throttles when the system slows down, hiding collapse.
        Origins are pre-drawn (one per query, in issue order) so the
        schedule is deterministic under a fixed seed.  Returns results in
        issue order.
        """
        if interval_ms < 0:
            raise ValueError("arrival interval cannot be negative")
        if not queries:
            return []
        origins = [self.pick_origin() for _ in queries]
        results: list[TimedQueryResult | None] = [None] * len(queries)
        remaining = [len(queries)]
        all_done: SimFuture[None] = SimFuture()

        def launch(index: int) -> None:
            future = self.query(
                queries[index], relation, attribute, origin=origins[index]
            )

            def on_done(settled: SimFuture, index: int = index) -> None:
                results[index] = settled.result()
                remaining[0] -= 1
                if remaining[0] == 0:
                    all_done.resolve(None)

            future.add_done_callback(on_done)

        base = self.sim.now
        for index in range(len(queries)):
            self.sim.call_at(
                base + index * interval_ms, lambda index=index: launch(index)
            )
        self.sim.run_until_complete(all_done)
        return [result for result in results if result is not None]
