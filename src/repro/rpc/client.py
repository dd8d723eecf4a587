"""The socket side of the query engine: transport, topology view, client.

Three pieces turn the transport-agnostic
:class:`~repro.rpc.engine.QueryEngine` into a real network client:

- :class:`SocketTransport` — the third :class:`~repro.net.transport.Transport`.
  ``request()`` is the :class:`~repro.sim.policies.Request` lifecycle
  both clocked transports share; each attempt posts one exchange — a
  parked future, no task — on the recipient's long-lived connection and
  settles when the reply frame with its
  ``id`` lands, so the ``l`` lookup chains of one query run concurrently,
  multiplexed over one TCP connection per peer, and the ``l·r`` stores
  of a miss leave in one write per peer.
  Routing hops stay *virtual*: the client mirrors the
  full ring, so the owner of an identifier is a local computation, and
  each traversed finger edge is charged to the traffic stats without a
  network round trip (the classic client-mode DHT shortcut).
- :class:`ClientSystem` — the engine's topology contract (hashing,
  placement, replica sets) rebuilt from a membership map instead of local
  peer stores.  Node ids are SHA-1 of peer addresses, so the client
  places identifiers exactly like every server's mirror.
- :class:`ClusterClient` — connects to any live peer, mirrors membership
  and config from its ``hello`` reply, and exposes ``query`` / ``leave``
  over the cluster and ``audit`` of where its entries sit (repair is the
  ring's own job).
"""

from __future__ import annotations

import asyncio
import os
import time
from functools import partial
from typing import Any, Callable, Sequence

from repro.chord.hashing import node_id_for_address
from repro.core.config import SystemConfig
from repro.core.overlays import ChordRouter
from repro.core.placement import HashedPlacement, audit_placement
from repro.core.system import SIM_ATTRIBUTE, SIM_RELATION, SystemCounters
from repro.errors import PeerUnavailableError, ReproError
from repro.net.transport import DONE, TrafficStats, Transport
from repro.obs.distributed import (
    FlightRecorder,
    StitchReport,
    cluster_histogram,
    counter_total,
    load_skew,
    new_trace_id,
    stitch_trace,
    wall_ms,
)
from repro.obs.health import AuditFinding, AuditReport
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import QueryTrace
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.engine import QueryEngine, TimedQueryResult
from repro.sim.policies import (
    AdaptiveTimeout,
    CircuitBreaker,
    JitteredBackoff,
    Request,
    RetryPolicy,
)
from repro.util.rng import derive_rng

__all__ = ["SocketTransport", "ClientSystem", "ClusterClient", "ClusterScraper"]

logger = get_logger("rpc.client")


class SocketTransport(Transport):
    """The engine's transport over asyncio TCP connections.

    Must be used from inside a running event loop (the
    :class:`ClusterClient` drives one); each attempt of a ``request()``
    posts its exchange before it returns and settles from the reply's
    done-callback.  Exchanges ride the connections of :attr:`connections`,
    the cache its owner lends it — one long-lived connection per
    recipient, so an exchange costs a frame each way, not a TCP
    handshake, and the frames one tick produces for a peer share one
    write.

    With ``policies=True`` (the default) the transport runs the adaptive
    mechanisms of :mod:`repro.sim.policies` against real sockets: a
    Jacobson/Karn :class:`~repro.sim.policies.AdaptiveTimeout` shrinks
    per-peer patience toward observed RTTs, a
    :class:`~repro.sim.policies.CircuitBreaker` fails requests to
    repeatedly-unresponsive peers fast (the rejection reads as a failed
    settle, so the engine's failover walks on to the next replica
    immediately instead of burning a timeout per query), and a
    :class:`~repro.sim.policies.JitteredBackoff` spaces the retries that
    do happen so recovering peers are not met with a thundering herd.
    """

    def __init__(
        self,
        endpoints: dict[int, tuple[str, int]],
        *,
        registry: MetricsRegistry | None = None,
        timeout_ms: float = 2_000.0,
        retries: int = 1,
        policies: bool = True,
        seed: int = 0,
    ) -> None:
        self.endpoints = dict(endpoints)
        self.stats = TrafficStats(registry=registry)
        #: ``timeout_ms`` per attempt; ``retries`` re-sends to the owner only.
        self.policy = RetryPolicy(timeout_ms, retries, backoff=1.0)
        self.failover_policy = RetryPolicy(timeout_ms, 0, backoff=1.0)
        #: Peers that refused a connection; cleared by a successful ping.
        self.dead: set[int] = set()
        #: The owner's connection cache (it outlives this transport, which
        #: every ``refresh()`` rebuilds).
        self.connections: wire.Connections | None = None
        self._live: set[Request] = set()
        self._epoch = time.monotonic()
        self.adaptive: AdaptiveTimeout | None = None
        self.breaker: CircuitBreaker | None = None
        self.backoff: JitteredBackoff | None = None
        if policies:
            self.adaptive = AdaptiveTimeout(
                floor_ms=min(100.0, timeout_ms),
                ceiling_ms=timeout_ms,
            )
            self.breaker = CircuitBreaker(
                self.now,
                failure_threshold=3,
                cooldown_ms=timeout_ms,
                registry=registry,
                namespace="rpc.breaker",
            )
            self.backoff = JitteredBackoff(
                base_ms=25.0,
                cap_ms=max(25.0, timeout_ms),
                seed=seed,
                name="rpc/backoff",
            )

    def now(self) -> float:
        return (time.monotonic() - self._epoch) * 1000.0

    def is_alive(self, peer_id: int) -> bool:
        return peer_id not in self.dead

    def mark_alive(self, peer_id: int) -> None:
        self.dead.discard(peer_id)
        if self.breaker is not None:
            self.breaker.reset(peer_id)
        if self.adaptive is not None:
            self.adaptive.forget(peer_id)

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        loop = asyncio.get_running_loop()
        return loop.call_later(delay_ms / 1000.0, fn)

    # The ring is mirrored locally, so overlay routing costs no wire time
    # here; the edges are still charged as routing messages to keep hop
    # accounting comparable across transports.

    def hop(
        self, hop_from: int, hop_to: int, fn: Callable[[float], None]
    ) -> Any:
        self.stats.record_routing_hops(1)
        fn(0.0)
        return DONE

    def _forward(
        self, path: Sequence[int], fn: Callable[[list[float]], None]
    ) -> None:
        edges = len(path) - 1
        if edges > 0:
            self.stats.record_routing_hops(edges)
        fn([0.0] * edges)

    def _attempt(self, request: Request, attempt: int, sent_at: float) -> Any:
        """Post one exchange on the recipient's connection: the exchange
        is the handle, and its done-callback reports to ``request``."""
        # The trace context rides as an optional envelope field; old
        # servers ignore it, so traced and untraced requests interoperate.
        trace_ctx = request.trace_ctx
        exchange = wire.call(
            *self.endpoints[request.recipient], request.kind, request.payload,
            connections=self.connections, sender=request.sender,
            peer_id=request.recipient,
            trace=trace_ctx.to_wire() if trace_ctx is not None else None,
        )
        landed = partial(self._landed, request, attempt, sent_at)
        if isinstance(exchange, wire.Exchange) and not exchange.done():
            # Parked on its connection: the reply is taken where it lands.
            exchange.on_settle = landed
        else:
            # Failed on posting, or wrapped in a coroutine: a loop turn.
            exchange = asyncio.ensure_future(exchange)
            exchange.add_done_callback(landed)
        return exchange

    def _landed(
        self, request: Request, attempt: int, sent_at: float, reply: asyncio.Future
    ) -> None:
        """An answer is charged here, a frame each way, unless nobody waits
        for it any more; a refused connection marks the peer dead for
        failover planning."""
        if reply.cancelled():
            return
        error = reply.exception()
        if error is not None:
            if isinstance(error, PeerUnavailableError):
                self.dead.add(request.recipient)
            if request in self._live:
                request.landed(attempt, sent_at, None, error)
        elif request in self._live:
            self.stats.record_exchange(request.kind, request.size_bytes, self.now() - sent_at)
            request.landed(attempt, sent_at, reply.result(), None)


class ClientSystem(HashedPlacement):
    """The engine's topology contract, served from a membership map.

    Mirrors the hashing/placement/replication views of
    :class:`~repro.core.system.RangeSelectionSystem` (the engine's
    documented contract) without any local peer state: identifiers come
    from the same seeded LSH scheme, the ring is rebuilt from member
    addresses, and liveness is whatever the transport has observed.
    """

    def __init__(
        self,
        config: SystemConfig,
        members: dict[str, tuple[str, int]],
        *,
        registry: MetricsRegistry | None = None,
        previous: "ClientSystem | None" = None,
    ) -> None:
        super().__init__(config, previous)
        self.members = dict(members)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.router = ChordRouter.mirror(self.members, config)
        ring = self.router.ring
        self.counters = SystemCounters(registry=self.metrics)
        #: node id -> (host, port), for the transport.
        self.endpoints: dict[int, tuple[str, int]] = {
            node_id: self.members[ring.node(node_id).address]
            for node_id in ring.node_ids
        }


class ClusterClient:
    """A querying client of a live socket cluster (``repro client``)."""

    def __init__(
        self,
        bootstrap: tuple[str, int],
        *,
        loop: asyncio.AbstractEventLoop | None = None,
        timeout_ms: float = 2_000.0,
        retries: int = 1,
        policies: bool = True,
        flight_dir: str | None = None,
    ) -> None:
        self.bootstrap = bootstrap
        self.timeout_ms = timeout_ms
        self.retries = retries
        self.policies = policies
        #: The client's own black box: breaker transitions and trace
        #: collection events; dumped to ``flight_dir`` when a breaker
        #: opens (the client-side analogue of a server's SWIM eviction).
        self.flight = FlightRecorder("client")
        self.flight_dir = flight_dir
        self._owns_loop = loop is None
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        #: The client's own registry: the ``wire.*`` series of its
        #: connections.  ``system.metrics`` is rebuilt with the mirrored
        #: system on every :meth:`refresh`; this one lives as long as the
        #: connections it describes.
        self.metrics = MetricsRegistry()
        #: One long-lived connection per member endpoint, shared by the
        #: query transport and the control calls.
        self.connections = wire.Connections(self.metrics)
        self.system: ClientSystem | None = None
        self.transport: SocketTransport | None = None
        self.engine: QueryEngine
        self._rng = None
        self.refresh()

    # -- plumbing --------------------------------------------------------

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    def _on_breaker_transition(self, peer_id: int, old: str, new: str) -> None:
        """Record breaker flips; an opening breaker dumps the black box."""
        self.flight.record_event("breaker", peer=peer_id, old=old, new=new)
        if new == "open" and self.flight_dir:
            path = os.path.join(self.flight_dir, "flight-client.jsonl")
            try:
                self.flight.dump(path, reason=f"breaker-open:{peer_id}")
            except OSError:
                logger.warning("client flight dump to %s failed", path)

    def close(self) -> None:
        """Stop in-flight exchanges and close every connection; the loop
        too, when this client made it."""
        if self.loop.is_closed():
            return
        self.transport.close()
        self._run(self.connections.close())
        if self._owns_loop:
            self.loop.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- membership ------------------------------------------------------

    def refresh(self) -> None:
        """Re-mirror membership and config from the bootstrap peer."""
        hello = self._run(
            wire.call(
                self.bootstrap[0], self.bootstrap[1], "hello",
                timeout_ms=self.timeout_ms,
            )
        )
        config = wire.config_from_wire(hello["config"])
        members = {
            address: (str(endpoint[0]), int(endpoint[1]))
            for address, endpoint in hello["members"].items()
        }
        previously_dead: set[int] = set()
        if self.transport is not None:
            previously_dead = self.transport.dead
            self.transport.close()
        # Membership moves; the hashing front of an unchanged config does
        # not, and the mirror it replaces already built it.
        self.system = ClientSystem(config, members, previous=self.system)
        self.transport = SocketTransport(
            self.system.endpoints,
            registry=self.system.metrics,
            timeout_ms=self.timeout_ms,
            retries=self.retries,
            policies=self.policies,
            seed=config.seed,
        )
        self.transport.dead |= previously_dead & set(self.system.endpoints)
        # A member that restarted came back on a new port: whatever is
        # still open to an endpoint no member has is closed here.
        self.connections.retain(members.values())
        self.transport.connections = self.connections
        # Peers the ring itself suspects are poor first choices: mark
        # them dead up front so origin picking and failover planning
        # route around them (a refuting peer clears itself on the next
        # successful exchange via mark_alive).
        node_of = {
            self.system.router.ring.node(node_id).address: node_id
            for node_id in self.system.router.node_ids
        }
        for address, record in hello.get("states", {}).items():
            state = str(record[0]) if record else "alive"
            node_id = node_of.get(address)
            if node_id is not None and state != "alive":
                self.transport.dead.add(node_id)
        if self.transport.breaker is not None:
            self.transport.breaker.transition_hook = self._on_breaker_transition
        self.engine = QueryEngine(self.system, self.transport)
        self._rng = derive_rng(config.seed, "client/origins")
        logger.info(
            "mirrored %d member(s) at epoch %s",
            len(members), hello.get("epoch"),
        )

    @property
    def members(self) -> dict[str, tuple[str, int]]:
        return self.system.members

    def endpoint_of(self, address: str) -> tuple[str, int]:
        return self.system.members[address]

    def pick_origin(self) -> int:
        """A random believed-alive member to originate routing from."""
        router = self.system.router
        dead = self.transport.dead
        if not dead and len(router):
            # The draw the filtered list below would take, without the copy.
            return router.node_at(int(self._rng.integers(len(router))))
        alive = [node_id for node_id in router.node_ids if node_id not in dead]
        if not alive:
            raise ReproError("no alive peer can originate a query")
        return alive[int(self._rng.integers(len(alive)))]

    # -- the query path ----------------------------------------------------

    def start_trace(self, query: IntRange | None = None, **attrs) -> QueryTrace:
        """A wall-clock trace for one query over the socket transport."""
        if query is not None:
            attrs.setdefault("query", str(query))
        attrs.setdefault("path", "socket")
        return QueryTrace(clock=self.transport.now, **attrs)

    def query(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> TimedQueryResult:
        """One full query (locate, match, store-on-miss) over sockets."""
        if origin is None:
            origin = self.pick_origin()
        # Started from a loop callback, not a task: the engine's future
        # settles ``done`` directly, and no coroutine steps in between.
        done = self.loop.create_future()

        def start() -> None:
            try:
                self.engine.query(
                    query, relation, attribute, origin,
                    padding=padding, trace=trace,
                ).add_done_callback(done.set_result)
            except Exception as exc:  # noqa: BLE001 — raised to the caller
                done.set_exception(exc)

        self.loop.call_soon(start)
        return self._run(done).result()

    def query_traced(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
    ) -> tuple[TimedQueryResult, QueryTrace, StitchReport]:
        """One query as a *distributed* trace: run, collect, stitch.

        Mints a trace id so every request of this query carries a wire
        context, runs the query, then asks every reachable member for its
        retained span fragments of this trace (``telemetry`` with
        ``spans_for``) and grafts them into the client trace tree.  The
        returned :class:`~repro.obs.distributed.StitchReport` says how
        many fragments attached, from which nodes, and whether any span's
        timing betrayed cross-node clock skew.
        """
        trace = self.start_trace(query)
        trace.trace_id = new_trace_id()
        #: Wall anchor: lets stitching map each server's wall-clock span
        #: times onto this trace's monotonic clock.
        trace.root.attrs["wall_start_ms"] = wall_ms()
        result = self.query(
            query, relation, attribute, origin, padding, trace=trace
        )
        fragments = self.collect_fragments(trace.trace_id)
        report = stitch_trace(trace, fragments)
        self.flight.record_event(
            "trace-stitched",
            trace_id=trace.trace_id,
            attached=report.attached,
            orphans=report.orphans,
            nodes=len(report.nodes),
        )
        return result, trace, report

    def collect_fragments(self, trace_id: str) -> list[dict]:
        """Every reachable member's span fragments for one trace id.

        Peers that died mid-query simply contribute nothing — their
        absence *is* the signal (the trace shows the timeout and the
        failover hop instead).
        """
        fragments: list[dict] = []
        for address in sorted(self.system.members):
            try:
                reply = self.call(
                    address, "telemetry", {"spans_for": trace_id}
                )
            except ReproError:
                continue
            if isinstance(reply, dict):
                fragments.extend(
                    doc for doc in reply.get("spans") or []
                    if isinstance(doc, dict)
                )
        return fragments

    # -- cluster control -------------------------------------------------

    async def _call(self, address: str, kind: str, payload: Any = None) -> Any:
        host, port = self.endpoint_of(address)
        return await wire.call(
            host, port, kind, payload,
            timeout_ms=self.timeout_ms, connections=self.connections,
        )

    def call(self, address: str, kind: str, payload: Any = None) -> Any:
        """One control RPC to a member, by address."""
        return self._run(self._call(address, kind, payload))

    def ping(self, address: str) -> bool:
        try:
            return bool(self.call(address, "ping"))
        except ReproError:
            return False

    def telemetry_of(self, address: str, spans: int = 32) -> dict:
        """One peer's full telemetry snapshot (metrics + queue + SWIM +
        census + recent span fragments), versioned and timestamped."""
        return self.call(address, "telemetry", {"spans": spans})

    def entries_of(
        self, address: str, page_size: int = wire.ENTRIES_PAGE_SIZE
    ) -> list:
        """One peer's stored entries as (id, descriptor, partition, primary),
        paged through the ``entries`` RPC."""
        return self._run(
            wire.fetch_entries(
                lambda page: self._call(address, "entries", page), page_size
            )
        )

    def audit(self) -> AuditReport:
        """Where every member's entries sit, graded against the mirrored
        ring by :func:`~repro.core.placement.audit_placement` (every
        member taken as up).  :meth:`refresh` first after churn, so
        evicted peers are not asked; an unreachable member raises."""
        ring = self.system.router.ring
        holders: dict = {}
        for node_id in self.system.router.node_ids:
            for identifier, descriptor, _rows, primary in self.entries_of(
                ring.node(node_id).address
            ):
                holders.setdefault((int(identifier), descriptor), {})[node_id] = primary
        return AuditReport(
            [AuditFinding.of(f) for f in audit_placement(holders, self.system)],
            nodes_checked=len(self.system.members),
            entries_checked=sum(len(held) for held in holders.values()),
        )

    def leave(self, address: str) -> int:
        """Ask a peer to leave gracefully; returns copies it handed off."""
        moved = int(self.call(address, "leave"))
        self.refresh()
        return moved


class ClusterScraper:
    """Polls every member's ``telemetry`` RPC into one cluster view.

    Each :meth:`scrape` returns a merged document: per-node rows (QPS
    from request-count deltas between scrapes, queue depth, connections
    accepted and open, repair debt,
    census, SWIM epoch, breaker state, clock skew versus the scraper's
    wall clock) plus cluster aggregates — bucket-merged ``p50/p95/p99``
    service time and the Gini coefficient over per-node request counts,
    the same skew statistic :mod:`repro.obs.health` reports for the
    simulator's ring, so live and simulated load imbalance are directly
    comparable.  Unreachable members are listed in ``errors``, never
    raised — a scraper that dies with its subject is useless.
    """

    def __init__(self, client: ClusterClient, *, spans: int = 8) -> None:
        self.client = client
        self.spans = spans
        #: address -> (wall_ms, cumulative request count) of the previous
        #: scrape; the QPS numerator/denominator.
        self._prev: dict[str, tuple[float, float]] = {}
        self.scrapes = 0

    def scrape(self) -> dict:
        """One polling pass over the current membership.

        Members the transport already knows are dead (refused a
        connection, or SWIM-suspected at ``hello`` time) are reported
        under ``down`` rather than attempted: without SWIM a killed peer
        stays in the mirrored member map forever, and a scrape that
        flags it as an *error* every pass would make the smoke drill's
        expected casualty indistinguishable from a live peer that
        stopped answering telemetry.
        """
        snapshots: dict[str, dict] = {}
        errors: dict[str, str] = {}
        down: list[str] = []
        id_bits = self.client.system.config.id_bits
        for address in sorted(self.client.system.members):
            node_id = node_id_for_address(address, id_bits)
            if not self.client.transport.is_alive(node_id):
                down.append(address)
                continue
            try:
                reply = self.client.telemetry_of(address, spans=self.spans)
            except ReproError as exc:
                errors[address] = type(exc).__name__
                continue
            if isinstance(reply, dict) and reply.get("version") is not None:
                snapshots[address] = reply
            else:
                errors[address] = "unparseable"
        self.scrapes += 1
        return self._merge(snapshots, errors, down)

    def _breaker_state(self, address: str) -> str:
        breaker = self.client.transport.breaker
        if breaker is None:
            return "-"
        node_id = node_id_for_address(
            address, self.client.system.config.id_bits
        )
        return breaker.state(node_id)

    def _merge(
        self,
        snapshots: dict[str, dict],
        errors: dict[str, str],
        down: list[str] | None = None,
    ) -> dict:
        now_wall = wall_ms()
        nodes: dict[str, dict] = {}
        requests_by_node: dict[str, float] = {}
        for address, snap in snapshots.items():
            metrics = snap.get("metrics") or {}
            requests = counter_total(metrics, "server.requests")
            requests_by_node[address] = requests
            prev = self._prev.get(address)
            qps = 0.0
            if prev is not None and now_wall > prev[0]:
                qps = max(0.0, requests - prev[1]) / ((now_wall - prev[0]) / 1000.0)
            self._prev[address] = (now_wall, requests)
            swim = snap.get("swim") or {}
            nodes[address] = {
                "node_id": snap.get("node_id"),
                "version": snap.get("version"),
                "requests": requests,
                "qps": qps,
                "queue_depth": snap.get("queue_depth", 0),
                #: Connections accepted so far and open now: next to
                #: ``requests`` they show whether callers reuse theirs.
                "accepts": counter_total(metrics, "wire.accepts"),
                "connections_open": counter_total(
                    metrics, "wire.connections_open"
                ),
                "pending_repair": snap.get("pending_repair", 0),
                "census": snap.get("census") or {},
                "swim_epoch": swim.get("epoch"),
                "swim_states": swim.get("states") or {},
                "breaker": self._breaker_state(address),
                #: Positive: the node's wall clock runs ahead of ours.
                "clock_skew_ms": (
                    float(snap["captured_wall_ms"]) - now_wall
                    if isinstance(
                        snap.get("captured_wall_ms"), (int, float)
                    )
                    else None
                ),
                "spans": snap.get("spans") or [],
            }
        metric_docs = [
            snap.get("metrics") or {} for snap in snapshots.values()
        ]
        down = list(down or [])
        return {
            "at_wall_ms": now_wall,
            "nodes": nodes,
            "errors": errors,
            "down": down,
            "service_ms": cluster_histogram(metric_docs, "server.service_ms"),
            "load_skew": (
                load_skew(requests_by_node) if requests_by_node else 0.0
            ),
            #: Members we expected an answer from: known-dead peers are
            #: not in the denominator, so scraped == members means every
            #: reachable member produced a versioned snapshot.
            "members": len(self.client.system.members) - len(down),
            "scraped": len(nodes),
        }
