"""A peer as a process: the dispatch core of one node (``repro serve``).

The core owns what touches a socket — the listening port, inbound and
outbound connections, the chaos state, the event-loop tick that commits
the journal and sends the replies — and one ``{kind: handler}`` table,
:attr:`PeerServer.handlers`.  The data-plane kinds map to the
:meth:`~repro.rpc.peer.PeerLogic.handle` the in-process transports use;
``join`` / ``member-update`` / ``swim-ping`` / ``ping-req`` /
``suspect`` to the SWIM detector, :class:`~repro.rpc.swim.MembershipService`;
``has-entries`` / ``repair-push`` / ``entries`` to
:class:`~repro.rpc.placement.PlacementService` (roles, repair rounds,
hand-off, restart reconciliation); ``telemetry`` / ``metrics`` to
:class:`~repro.rpc.telemetry.TelemetryService`; the rest are the core's
own.  A handler that returns a coroutine goes on as a task, so a request waiting
on a third peer delays nothing behind it; every other one runs to its
reply inline, from the read that completed the request.

No service sees a socket: they reach other members through
:meth:`PeerServer._call_member` and read a clock.  Membership reports
every move of the ring to one callback, :meth:`PeerServer._ring_changed`,
which rebuilds the ring mirror and runs what placement decides follows.

**Chaos.**  ``chaos-set`` injects a per-request service delay, a seeded
drop probability (that request alone gets no reply; its connection
carries on) and a *blocked* sender list: a blocked peer's connection is
hung up on and calls to it are refused locally — two-sided partitions
without ``tc``.  Clients set no sender address and are never blocked.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import random
import signal
import time
from types import CoroutineType
from typing import Any, Callable

from repro.chord.hashing import node_id_for_address
from repro.core.config import SystemConfig
from repro.core.matcher import matcher_by_name
from repro.core.overlays import ChordRouter
from repro.core.placement import ReplicaPlacement
from repro.errors import PeerUnavailableError, ReproError
from repro.obs.distributed import FlightRecorder, TraceContext, wall_ms
from repro.obs.log import get_logger
from repro.obs.registry import MetricsRegistry
from repro.rpc import wire
from repro.rpc.peer import DATA_KINDS, PeerLogic
from repro.rpc.placement import PlacementService
from repro.rpc.swim import ALIVE, SUSPECT, MembershipService, MembershipTable, MergeOutcome
from repro.rpc.telemetry import TelemetryService
from repro.storage.store import LRUEviction, NoEviction, PeerStore
from repro.storage.wal import PeerDurability

__all__ = ["PeerServer", "READY_PREFIX"]

logger = get_logger("rpc.server")

#: First token of the line a server prints once it accepts connections;
#: cluster managers (and the CI smoke job) wait for it.
READY_PREFIX = "REPRO-SERVE ready"

#: Budget for one control-plane RPC between servers (member-update
#: broadcasts, hand-off store pushes).  Generous for loopback; bounded so
#: a hung peer cannot wedge a join or leave forever.
CONTROL_TIMEOUT_MS = 5_000.0


class PeerServer(ReplicaPlacement):
    """One node of the live cluster: store, ring mirror, TCP endpoint."""

    def __init__(
        self,
        address: str,
        config: SystemConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        bootstrap: tuple[str, int] | None = None,
        swim_interval_ms: float = 0.0,
        suspect_timeout_ms: float | None = None,
        swim_proxies: int = 2,
        repair_interval_ms: float = 0.0,
        flight_dir: str | None = None,
        data_dir: str | None = None,
        wal_fsync: bool = True,
        compact_every: int = 512,
    ) -> None:
        if config.overlay != "chord":
            raise ReproError("the socket transport requires the chord overlay")
        if swim_interval_ms < 0:
            raise ReproError("swim_interval_ms cannot be negative")
        if repair_interval_ms < 0:
            raise ReproError("repair_interval_ms cannot be negative")
        if swim_proxies < 0:
            raise ReproError("swim_proxies cannot be negative")
        self.address = address
        self.config = config
        self.host = host
        self.port = port  # 0 until bound; then the real port
        self.bootstrap = bootstrap
        self.node_id = node_id_for_address(address, config.id_bits)
        capacity = config.max_partitions_per_peer
        self.store = PeerStore(self.node_id, LRUEviction(capacity) if capacity else NoEviction())
        self.logic = PeerLogic(
            self.node_id, self.store, matcher_by_name(config.matcher),
            local_index=config.local_index,
        )
        #: SWIM membership mirror (records, states, incarnations, epoch).
        self.table = MembershipTable(address, host, port)
        self.router: ChordRouter | None = None
        self.metrics = MetricsRegistry()
        # Chaos-injection state, driven by the ``chaos-set`` RPC.
        self.chaos_delay_ms = 0.0
        self.chaos_drop = 0.0
        self.chaos_blocked: set[str] = set()
        self._chaos_rng = random.Random(0)
        #: Always-on black box of recent server-side spans and events;
        #: dumped to ``flight_dir`` on SWIM evictions when configured.
        self.flight = FlightRecorder(address)
        self._span_ids = itertools.count(1)
        #: Durable store under ``--data-dir`` (WAL + snapshot + meta);
        #: None keeps the purely in-memory behavior.
        self.durability = PeerDurability(
            data_dir, fsync=wal_fsync, compact_every=compact_every, registry=self.metrics
        ) if data_dir else None
        #: Replies produced this event-loop tick, as ``(transport, request id,
        #: frame, kind label, arrival ms)``, and the callback that ends it.
        self._replies: list[tuple] = []
        self._tick: asyncio.Handle | None = None
        #: Concurrently-executing requests right now (all kinds).
        self._inflight = 0
        self._requests = self.metrics.counter("server.requests", help="requests served, by kind")
        self._inflight_gauge = self.metrics.gauge(
            "server.inflight", help="requests executing right now"
        )
        self._service_ms = self.metrics.histogram(
            "server.service_ms", help="request service time, by kind"
        )
        #: Outbound connections to other members, one per endpoint; its
        #: ``wire.*`` series also count this peer's inbound side.
        self.connections = wire.Connections(self.metrics)
        self._wire = self.connections.metrics
        #: Inbound connections: the protocol of each, and its transport.
        self._inbound: dict[_RequestProtocol, asyncio.Transport] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self.placement = PlacementService(
            self.logic, self.table,
            owners=self.replica_owners, address_of=self._address_of,
            send=self._call_member, clock=self._now_ms,
            metrics=self.metrics, flight=self.flight,
            interval_ms=repair_interval_ms,
        )
        self.membership = MembershipService(
            self.table,
            send=self._call_member, clock=self._now_ms, spawn=self._spawn,
            on_ring_change=self._ring_changed, persist=self._persist_incarnation,
            health=self._health_payload, metrics=self.metrics, flight=self.flight,
            interval_ms=swim_interval_ms, suspect_timeout_ms=suspect_timeout_ms,
            proxies=swim_proxies,
        )
        self.telemetry = TelemetryService(
            self.node_id, self.store, self.table, metrics=self.metrics, flight=self.flight,
            health=self._health_payload, clock=self._now_ms, flight_dir=flight_dir,
        )
        #: Every request kind this peer serves, and what serves it.  Its
        #: keys are also the ``server.requests{kind}`` labels: anything
        #: else is counted as ``unknown``, so garbage off the wire cannot
        #: mint label series.
        self.handlers: dict[str, Callable[[Any], Any]] = {
            **{kind: functools.partial(self.logic.handle, kind) for kind in DATA_KINDS},
            **self.membership.handlers,
            **self.placement.handlers,
            **self.telemetry.handlers,
            "hello": self._hello,
            "leave": self._leave,
            "chaos-set": self._chaos_set,
            "ping": lambda _payload: True,
            "shutdown": self._shutdown,
        }

    # -- clocks and views ------------------------------------------------

    @staticmethod
    def _now_ms() -> float:
        return time.monotonic() * 1000.0

    def _health_payload(self) -> dict:
        """The cheap health sample piggybacked on SWIM ping replies."""
        return {
            "queue_depth": self._inflight,
            "pending_repair": self.placement.pending,
            "entries": self.store.partition_count,
        }

    @property
    def members(self) -> dict[str, tuple[str, int]]:
        """``address -> (host, port)`` of every non-dead member."""
        return self.table.endpoints()

    def _address_of(self, node_id: int) -> str:
        assert self.router is not None
        return self.router.ring.node(node_id).address

    def _ring_changed(self, change: MergeOutcome) -> asyncio.Task | None:
        """The one callback for every move of the ring (a join, merged
        gossip, an eviction, this peer's departure): rebuild the mirror
        from the non-dead members, hang up on endpoints that left it (an
        evicted or re-addressed member), mark an eviction in the flight
        recorder, and run whatever placement decides follows."""
        endpoints = self.table.endpoints()
        self.router = ChordRouter.mirror(endpoints, self.config)
        self.connections.retain(endpoints.values())
        if change.evicted:
            self.telemetry.incident(f"evicted:{','.join(change.evicted)}")
        follow_up = self.placement.ring_changed(change)
        return self._spawn(follow_up) if follow_up is not None else None

    # -- outgoing calls (all server-to-server traffic funnels here) ------

    async def _call_member(
        self, address: str, kind: str, payload: Any = None, *,
        timeout_ms: float = CONTROL_TIMEOUT_MS,
    ) -> Any:
        """One RPC to a member by address — the services' ``send`` —
        honouring the chaos partition (calls to blocked peers are refused
        locally, without a socket)."""
        member = self.table.get(address)
        if member is None or address in self.chaos_blocked:
            raise PeerUnavailableError(-1)
        return await wire.call(
            member.host, member.port, kind, payload,
            sender=self.node_id, sender_address=self.address,
            timeout_ms=timeout_ms, connections=self.connections,
        )

    def _spawn(self, coroutine) -> asyncio.Task:
        """Run a coroutine in the background, tracked for teardown."""
        task = self._loop.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._reap)
        return task

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            logger.error("task failed on %s", self.address, exc_info=task.exception())

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the port, join via the bootstrap peer (if any), go live.

        With a ``data_dir``, the store is rebuilt from snapshot + WAL
        *before* the port binds (no request can observe a half-recovered
        store), the SWIM incarnation resumes past the persisted one (so
        the rejoin beats any tombstone from the previous life), and a
        reconciliation round runs once the ring mirror is adopted.
        """
        self._loop = asyncio.get_running_loop()
        if self.durability is not None:
            self.durability.recover(self.store)
            persisted = self.durability.load_incarnation()
            if persisted is not None:
                self.table.set_incarnation(persisted + 1)
            self._persist_incarnation()
            self.durability.attach(self.store, self._end_tick_soon)
        self._server = await self._loop.create_server(
            lambda: _RequestProtocol(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.table.set_endpoint(self.host, self.port)
        if self.bootstrap is None:
            self.table.epoch = 1
        else:
            my_incarnation = self.table.incarnation
            reply = await wire.call(
                *self.bootstrap, "join",
                {"address": self.address, "host": self.host, "port": self.port},
                sender_address=self.address, timeout_ms=CONTROL_TIMEOUT_MS,
            )
            # A merge, not a replacement: a member-update naming a later
            # joiner may have landed while this reply was in flight.
            self.table.adopt(reply, self._now_ms())
            # The adopted map may carry this address as a tombstone (or
            # at a stale incarnation) from a previous life; restore the
            # identity the restart resumed before anything gossips.
            self.table.reassert_self(my_incarnation)
            self._persist_incarnation()
        self._ring_changed(MergeOutcome())
        if self.durability is not None and self.table.peers(ALIVE, SUSPECT):
            self._spawn(self.placement.reconcile())
        if self.membership.interval_ms > 0:
            self._spawn(self.membership.run())
        if self.placement.interval_ms > 0:
            self._spawn(self.placement.run())
        print(
            f"{READY_PREFIX} address={self.address} node_id={self.node_id} "
            f"host={self.host} port={self.port}",
            flush=True,
        )
        logger.info(
            "peer %s (id %d) serving on %s:%d, %d member(s), swim=%s repair=%s",
            self.address, self.node_id, self.host, self.port,
            len(self.table.endpoints()),
            f"{self.membership.interval_ms:g}ms" if self.membership.interval_ms else "off",
            f"{self.placement.interval_ms:g}ms" if self.placement.interval_ms else "off",
        )

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` or ``leave`` request stops the server."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        await self.close()

    async def close(self) -> None:
        """Stop serving (in-process embedders call this): no new
        connections, every open one hung up, every task unwound."""
        self._stopped.set()
        if self._server is not None:
            self._server.close()
        tasks = list(self._tasks)  # background loops, requests in flight
        for task in tasks:
            task.cancel()
        # Nothing journaled stays buffered, and no finished reply unsent.
        self._end_tick()
        # Hang up every inbound connection (after its last replies) and
        # wait until each is gone.
        inbound = list(self._inbound.items())
        for _, transport in inbound:
            transport.close()
        await asyncio.gather(
            *tasks, *(protocol.lost for protocol, _ in inbound), return_exceptions=True
        )
        await self.connections.close()
        if self._server is not None:
            # From Python 3.12 this waits for every accepted connection
            # to be gone, which is why they are closed first.
            await self._server.wait_closed()
        if self.durability is not None:
            self.durability.close()

    # -- durability ------------------------------------------------------

    def _end_tick_soon(self, _commit: Any = None) -> None:
        """Called for every reply produced and (as the journal's commit
        scheduler) every record written: one :meth:`_end_tick` follows."""
        if self._tick is None:
            self._tick = self._loop.call_soon(self._end_tick)

    def _end_tick(self) -> None:
        """Commit before ack: one journal commit covers whatever this
        event-loop tick wrote, then the tick's replies leave, one write
        per connection — as error replies, should the commit fail."""
        self._tick = None
        replies, self._replies = self._replies, []
        failure = None
        if self.durability is not None:
            try:
                self.durability.commit()
            except (OSError, ReproError) as exc:
                logger.exception("journal commit failed on %s", self.address)
                failure = exc
        batches: dict[asyncio.Transport, list[bytes]] = {}
        now = self._now_ms()  # service time ends here: a store's includes the commit
        for transport, request_id, frame, label, started in replies:
            self._service_ms.observe(now - started, kind=label)
            if failure is not None:
                frame = _error_frame(request_id, failure)
            batches.setdefault(transport, []).append(frame)
        for transport, frames in batches.items():
            wire.write_frames(transport, frames, self._wire)

    def _persist_incarnation(self) -> None:
        """Write the SWIM incarnation to the data dir (if any) on every
        bump, so a restart resumes past the last value the cluster saw."""
        if self.durability is not None:
            self.durability.store_incarnation(self.table.incarnation)

    # -- the core's own request kinds ------------------------------------

    def _hello(self, _payload: Any) -> dict:
        return {
            "address": self.address,
            "node_id": self.node_id,
            "config": wire.config_to_wire(self.config),
            "epoch": self.table.epoch,
            "members": {
                address: [host, port] for address, (host, port) in self.members.items()
            },
            "states": self.table.states(),
        }

    async def _leave(self, _payload: Any) -> int:
        moved = await self.membership.depart()
        self._stopped.set()
        return moved

    def _shutdown(self, _payload: Any) -> bool:
        self._stopped.set()
        return True

    def _chaos_set(self, payload: Any) -> dict:
        """Install fault-injection settings (the chaos harness hook)."""
        body = payload if isinstance(payload, dict) else {}
        if "delay_ms" in body:
            self.chaos_delay_ms = max(0.0, float(body["delay_ms"]))
        if "drop" in body:
            drop = float(body["drop"])
            if not 0.0 <= drop < 1.0:
                raise ReproError("chaos drop probability must be in [0, 1)")
            self.chaos_drop = drop
        if "blocked" in body:
            self.chaos_blocked = {str(a) for a in body["blocked"]}
        if "seed" in body:
            self._chaos_rng = random.Random(int(body["seed"]))
        return {
            "delay_ms": self.chaos_delay_ms,
            "drop": self.chaos_drop,
            "blocked": sorted(self.chaos_blocked),
        }

    # -- serving one request ---------------------------------------------

    def _serve(self, request: dict, transport: asyncio.Transport) -> None:
        """Run one request through its handler: to its reply, right here,
        or — for a handler that returns a coroutine — on as a task that
        answers when the coroutine returns."""
        kind, books = self._admit(request)
        handler = self.handlers.get(kind)
        try:
            payload = wire.decode_value(request.get("payload"))
            # An unknown kind gets the ConfigError the in-process handler raises.
            outcome = handler(payload) if handler else self.logic.handle(kind, payload)
        except Exception as exc:  # noqa: BLE001 - reported to caller
            outcome = exc
        if isinstance(outcome, CoroutineType):
            self._spawn(self._finish(request, transport, books, outcome))
        else:
            self._answer(request, transport, books, outcome)

    async def _finish(self, request: dict, transport: asyncio.Transport, books: tuple, pending):
        try:
            outcome = await pending
        except Exception as exc:  # noqa: BLE001 - reported to caller
            outcome = exc
        self._answer(request, transport, books, outcome)

    async def _serve_chaos(self, request: dict, transport: asyncio.Transport) -> None:
        """Chaos acts on this request alone; the connection, and whatever
        else is in flight on it, carries on."""
        if self.chaos_delay_ms > 0:
            await asyncio.sleep(self.chaos_delay_ms / 1000.0)
        if self.chaos_drop > 0.0 and self._chaos_rng.random() < self.chaos_drop:
            return  # injected loss: no reply, the caller's timeout fires
        self._serve(request, transport)

    def _admit(self, request: dict) -> tuple[str, tuple]:
        """Open the books on one request: its kind, and ``(metric label,
        arrival ms, flight entry)`` for :meth:`_answer` to close."""
        kind = str(request.get("kind"))
        label = kind if kind in self.handlers else "unknown"
        # A garbled or missing trace envelope degrades the request
        # to untraced (``from_wire`` returns None) — propagation
        # can add observability but never fail a request.
        ctx = TraceContext.from_wire(request.get("trace"))
        self._inflight += 1
        self._requests.inc(kind=label)
        self._inflight_gauge.set(self._inflight)
        entry: dict | None = None
        if (ctx is not None and ctx.sampled) or kind in DATA_KINDS:
            # The server-side span, written straight in the form the
            # flight recorder keeps and the telemetry RPC ships (a
            # ``SpanFragment.to_dict()`` tagged "span").  The id only has
            # to be unique within one stitched trace, whose fragments
            # come from a handful of peers: address + a counter will do.
            entry = {
                "type": "span",
                "name": f"serve:{kind}",
                "node": self.address,
                "trace_id": ctx.trace_id if ctx is not None else None,
                "parent_span_id": ctx.parent_span_id if ctx is not None else None,
                "span_id": f"frag-{self.address}-{next(self._span_ids)}",
                "start_wall_ms": wall_ms(),
                "end_wall_ms": None,
                "attrs": {"kind": kind, "inflight": self._inflight},
                "events": [],
            }
        return kind, (label, self._now_ms(), entry)

    def _answer(
        self, request: dict, transport: asyncio.Transport, books: tuple, outcome: Any
    ) -> None:
        """Close the books on one request and queue its reply — the
        handler's value, or the exception it raised — for the tick's end."""
        label, started, entry = books
        request_id = request.get("id", 0)
        try:
            if isinstance(outcome, Exception):
                raise outcome
            frame = wire.encode_frame(
                {"id": request_id, "ok": True, "value": wire.encode_value(outcome)}
            )
            error = None
        except Exception as exc:  # noqa: BLE001 - reported to caller
            frame = _error_frame(request_id, exc)
            error = type(exc).__name__
        self._inflight -= 1
        self._inflight_gauge.set(self._inflight)
        if entry is not None:
            entry["attrs"]["outcome"] = "ok" if error is None else "error"
            if error is not None:
                entry["attrs"]["error"] = error
            entry["end_wall_ms"] = wall_ms()
            self.flight.record_span_entry(entry)
        self._replies.append((transport, request_id, frame, label, started))
        self._end_tick_soon()


class _RequestProtocol(asyncio.BufferedProtocol):
    """The serving end of one inbound connection.

    Every request a read completes is served from the callback (under
    chaos delay or drop, from a task of its own), and replies leave when
    the tick ends, matched by ``id``.
    """

    def __init__(self, server: "PeerServer") -> None:
        self.server = server
        self.decoder = wire.FrameDecoder(server._wire.bytes_in)
        self.get_buffer = self.decoder.get_buffer
        #: Resolved when the transport is gone.
        self.lost = server._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        # Backpressure: a caller that is not taking its replies is not
        # read from until it does.
        self.pause_writing = transport.pause_reading
        self.resume_writing = transport.resume_reading
        if self.server._stopped.is_set():
            transport.close()  # accepted just as close() ran
            return
        self.server._inbound[self] = transport
        self.server._wire.accepts.inc()
        self.server._wire.connections_open.inc()

    def buffer_updated(self, nbytes: int) -> None:
        server, transport = self.server, self.transport
        # Whatever raises here — a torn or corrupt frame, a request the
        # dispatch chokes on — drops the connection; left to asyncio, it
        # would only be logged.
        try:
            for request in self.decoder.buffer_updated(nbytes):
                if request.get("from") in server.chaos_blocked:
                    transport.close()  # partitioned: hang up, like a dead link
                    return
                if server.chaos_delay_ms or server.chaos_drop:
                    server._spawn(server._serve_chaos(request, transport))
                else:
                    server._serve(request, transport)
        except Exception:  # noqa: BLE001 - the caller sees a hang-up
            logger.debug("dropping a connection to %s", server.address, exc_info=True)
            transport.close()

    def connection_lost(self, exc: BaseException | None) -> None:
        if self.server._inbound.pop(self, None) is not None:
            self.server._wire.connections_open.inc(-1)
        self.lost.set_result(None)


def _error_frame(request_id: Any, error: Exception) -> bytes:
    reply = {"id": request_id, "ok": False, "error": str(error)}
    return wire.encode_frame({**reply, "error_type": type(error).__name__})


async def run_server(address: str, config: SystemConfig, **options: Any) -> None:
    """Start one peer and serve until asked to stop (``repro serve``);
    ``options`` are :class:`PeerServer`'s.  SIGTERM is a graceful stop:
    :meth:`PeerServer.close` commits the journal before it goes."""
    server = PeerServer(address, config, **options)
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, server._stopped.set)
    await server.serve_forever()
