"""The wire protocol of the socket transport.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  JSON (not a binary codec)
keeps the protocol dependency-free and debuggable with ``nc``/``jq``;
the values that actually cross the wire are small (descriptors and match
scores — partition rows only travel on explicit fetches), so framing
overhead dominates encoding choice anyway.

Exchanges are multiplexed over one long-lived connection per peer pair::

    -> {"id": 7, "kind": "match-request", "sender": 123, "payload": ...}
    -> {"id": 8, "kind": "swim-ping", "sender": 123, "payload": ...}
    <- {"id": 8, "ok": true, "value": ...}
    <- {"id": 7, "ok": false, "error": "...", "error_type": "ConfigError"}

The requester picks ``id`` — a counter private to the connection, from 0
— and the server echoes it, so replies may come back in any order: a
slow handler never holds up the requests queued behind it.  A reply
whose ``id`` no request is waiting for is discarded (counted as
``wire.late_replies`` when that request already timed out).

:class:`Connection` is the one exchange primitive: the protocol of its
socket, decoding replies with the sans-io :class:`FrameDecoder` as reads
land, it parks one :class:`Exchange` — a future plus a timeout handle, no
task — per in-flight ``id`` and fails them all when the peer hangs up or
breaks the framing.  Either end sends the frames one event-loop tick
produces for a connection in one ``write`` (:func:`write_frames`).
:class:`Connections` caches one connection per ``(host, port)`` for
owners that live long (a :class:`~repro.rpc.client.ClusterClient`, a
:class:`~repro.rpc.server.PeerServer`); :func:`call` without a cache
opens one connection for one request and closes it.

Who closes when: the *requester* closes a connection it no longer wants
(its endpoint left the member map, or its owner shut down); the *server*
closes on a framing violation, on a partitioned sender, and at shutdown.
A request timing out closes nothing.  A hang-up found on a connection
that was idle since its last exchange says nothing about the peer — it
may have restarted — so :class:`Connections` retries that request once
on a fresh connection, and only the fresh attempt's outcome counts.

``payload``/``value`` carry the same Python objects the in-process
transports pass by reference — :class:`~repro.ranges.interval.IntRange`,
:class:`~repro.db.partition.PartitionDescriptor`,
:class:`~repro.db.partition.Partition` and tuples — encoded with explicit
type tags (``$range``, ``$desc``, ``$part``, ``$tuple``) so a round trip
reconstructs equal objects and the peer logic cannot tell which transport
delivered the message.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
from typing import Any, Awaitable, Callable, Iterable

from repro.core.config import SystemConfig
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import (
    ConfigError,
    PeerUnavailableError,
    ReproError,
    RequestTimeoutError,
    StorageError,
)
from repro.obs.registry import Counter, MetricsRegistry
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

__all__ = [
    "MAX_FRAME_BYTES",
    "ENTRIES_PAGE_SIZE",
    "fetch_entries",
    "encode_value",
    "decode_value",
    "encode_frame",
    "FrameDecoder",
    "WireMetrics",
    "write_frames",
    "Exchange",
    "Connection",
    "Connections",
    "ConnectionLostError",
    "call",
    "config_to_wire",
    "config_from_wire",
    "RemoteError",
    "WireError",
]

_LENGTH = struct.Struct("!I")

#: Upper bound on one frame's JSON body.  Far above any real message
#: (a full partition fetch of ~100k rows fits in a few MiB); present so a
#: corrupt or hostile length prefix cannot make a peer allocate blindly.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Default page size of the ``entries`` bulk-transfer RPC.  Chosen so a
#: page of row-bearing partitions stays far under the frame cap; callers
#: iterate pages, so the store size itself is unbounded.
ENTRIES_PAGE_SIZE = 512


class RemoteError(ReproError):
    """A peer answered an RPC with an error the client cannot map back
    to a library exception type."""


class WireError(ReproError, ValueError):
    """The byte stream violated the framing protocol: one typed error
    for every torn, oversized or corrupt frame (:class:`FrameDecoder`), so
    servers can drop the connection and clients can treat the peer as
    unavailable, and nothing ever hangs on a half-delivered frame.
    """


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Recursively encode a payload value into JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, IntRange):
        return {"$range": [value.start, value.end]}
    if isinstance(value, PartitionDescriptor):
        return {
            "$desc": [
                value.relation,
                value.attribute,
                value.range.start,
                value.range.end,
            ]
        }
    if isinstance(value, Partition):
        return {
            "$part": {
                "desc": encode_value(value.descriptor)["$desc"],
                "rows": [list(row) for row in value.rows],
            }
        }
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "$range" in value:
        start, end = value["$range"]
        return IntRange(int(start), int(end))
    if "$desc" in value:
        relation, attribute, start, end = value["$desc"]
        return PartitionDescriptor(relation, attribute, IntRange(int(start), int(end)))
    if "$part" in value:
        body = value["$part"]
        relation, attribute, start, end = body["desc"]
        return Partition(
            descriptor=PartitionDescriptor(
                relation, attribute, IntRange(int(start), int(end))
            ),
            rows=tuple(tuple(row) for row in body["rows"]),
        )
    if "$tuple" in value:
        return tuple(decode_value(item) for item in value["$tuple"])
    return {key: decode_value(item) for key, item in value.items()}


def config_to_wire(config: SystemConfig) -> dict:
    """A :class:`~repro.core.config.SystemConfig` as a JSON-safe dict."""
    return dataclasses.asdict(config)


def config_from_wire(body: dict) -> SystemConfig:
    """Rebuild a config sent by :func:`config_to_wire` (or typed by hand
    on a ``--config-json`` flag; missing fields take their defaults)."""
    data = dict(body)
    domain = data.pop("domain", None)
    known = {field.name for field in dataclasses.fields(SystemConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    if domain is not None:
        data["domain"] = Domain(
            str(domain["name"]), int(domain["low"]), int(domain["high"])
        )
    return SystemConfig(**data)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class WireMetrics:
    """The wire layer's registry series, resolved once.

    Both ends of a connection bump these per frame, so they are bound as
    attributes here instead of looked up by name on the hot path.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.connects = registry.counter(
            "wire.connects", help="outbound connections opened"
        )
        self.accepts = registry.counter(
            "wire.accepts", help="inbound connections accepted"
        )
        self.connections_open = registry.gauge(
            "wire.connections_open",
            help="connections open right now, inbound and outbound",
        )
        self.bytes_out = registry.counter(
            "wire.bytes_out", help="frame bytes written"
        )
        self.frames_out = registry.counter("wire.frames_out", help="frames written")
        self.writes = registry.counter(
            "wire.writes", help="socket writes, each carrying frames_out / writes frames"
        )
        self.bytes_in = registry.counter(
            "wire.bytes_in", help="frame bytes read"
        )
        self.late_replies = registry.counter(
            "wire.late_replies",
            help="replies discarded: their request had timed out or been abandoned",
        )
        self.stale_retries = registry.counter(
            "wire.stale_retries",
            help="requests re-sent because a reused connection had hung up",
        )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def encode_frame(document: dict) -> bytes:
    """One length-prefixed JSON frame, ready to write."""
    body = json.dumps(document, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Frames out of a byte stream, with no I/O of its own (sans-io).

    :meth:`feed` appends bytes and returns the frames they complete, in
    order; a protocol lends its transport :meth:`get_buffer` and hands each
    read to :meth:`buffer_updated`.  Framing violations raise
    :class:`WireError`: a length prefix past :data:`MAX_FRAME_BYTES` as soon
    as it is in, a body that is not a UTF-8 JSON object once complete, and
    a torn prefix or body at :meth:`eof` (which passes between frames).
    ``bytes_in`` is charged the size of every complete frame.
    """

    #: The most one read brings.
    READ_SIZE = 64 * 1024

    def __init__(self, bytes_in: Counter | None = None) -> None:
        self._bytes_in = bytes_in
        self._read = memoryview(bytearray(self.READ_SIZE))
        #: Received and not yet decoded: a partial frame, at most.
        self._pending = bytearray()

    def get_buffer(self, sizehint: int = -1) -> memoryview:
        return self._read

    def buffer_updated(self, nbytes: int) -> list[dict]:
        return self.feed(self._read[:nbytes])

    def feed(self, data: bytes | memoryview) -> list[dict]:
        pending = self._pending
        pending += data
        frames = []
        start, end = 0, len(pending)
        with memoryview(pending) as view:
            while end - start >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(view, start)
                if length > MAX_FRAME_BYTES:
                    raise WireError(f"peer announced a {length}-byte frame; refusing")
                stop = start + _LENGTH.size + length
                if stop > end:
                    break
                if self._bytes_in is not None:
                    self._bytes_in.inc(stop - start)
                try:
                    document = _parse(str(view[start + _LENGTH.size : stop], "utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise WireError(f"frame body is not valid JSON: {exc}") from exc
                if type(document) is not dict:
                    raise WireError(
                        f"frame body is {type(document).__name__}, expected an object"
                    )
                frames.append(document)
                start = stop
        del pending[:start]
        return frames

    def eof(self) -> None:
        pending = self._pending
        if len(pending) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(pending)
            raise WireError(f"peer died mid-frame ({length} bytes announced)")
        if pending:
            raise WireError(f"peer died {len(pending)} byte(s) into a length prefix")


_parse = json.JSONDecoder().decode


# ---------------------------------------------------------------------------
# Multiplexed exchanges
# ---------------------------------------------------------------------------

#: Error types a peer may report, mapped back to library exceptions so
#: the engine's failover logic works unchanged over sockets.
_ERROR_TYPES = {"ConfigError": ConfigError, "StorageError": StorageError}


class ConnectionLostError(PeerUnavailableError):
    """The peer hung up (EOF or reset) with this request unanswered.

    Definitive on a connection opened for the request; on a reused one it
    only says the *connection* was stale, and :class:`Connections`
    retries on a fresh one.
    """


def write_frames(
    transport: asyncio.WriteTransport, frames: list[bytes], metrics: WireMetrics
) -> None:
    """Send what one event-loop tick queued for one connection end in one
    ``write``.  A write that fails is the protocol's to report: the
    transport closes and tells it."""
    if frames and not transport.is_closing():
        data = b"".join(frames)
        transport.write(data)
        metrics.writes.inc()
        metrics.frames_out.inc(len(frames))
        metrics.bytes_out.inc(len(data))


class Exchange(asyncio.Future):
    """One request/reply in flight on a :class:`Connection`: what to send,
    and the future of the reply.  It is settled from the event loop by
    whichever comes first — the reply carrying its ``id``, its
    ``timeout_ms`` timer, or the connection's end; waiting for it takes a
    callback or an ``await``, no task of its own.  Cancelling it (or the
    coroutine awaiting it) abandons the request on the spot: nothing
    stays parked, no timer stays armed, and the reply, should it still
    come, is dropped by its ``id``.

    ``sender_address`` identifies the calling *peer* (servers calling
    servers set it); the chaos connection filter uses it to enforce
    partitions, and clients leave it unset.  ``trace`` is the optional
    distributed-trace envelope (:class:`repro.obs.distributed.TraceContext`
    wire form); peers that predate it ignore the extra field, so traced
    and untraced requests are interchangeable on the wire.
    """

    #: Where to re-send, once, if the connection this was posted on turns
    #: out to have gone stale.
    cache: "Connections | None" = None
    connection: "Connection | None" = None
    id = -1
    timer: asyncio.TimerHandle | None = None
    #: Called with the exchange the moment it settles (not when cancelled),
    #: which saves a waiter the loop turn a done-callback waits for.
    on_settle: "Callable[[Exchange], None] | None" = None

    def __init__(
        self,
        kind: str,
        payload: Any = None,
        *,
        sender: int = -1,
        sender_address: str | None = None,
        peer_id: int = -1,
        timeout_ms: float | None = None,
        trace: dict | None = None,
    ) -> None:
        super().__init__(loop=asyncio.get_running_loop())
        self.request = {"kind": kind, "sender": sender, "payload": encode_value(payload)}
        if sender_address is not None:
            self.request["from"] = sender_address
        if trace is not None:
            self.request["trace"] = trace
        self.peer_id = peer_id
        self.timeout_ms = timeout_ms

    def settle(self, value: Any, error: BaseException | None) -> None:
        self.abandon()
        if self.done():
            return  # cancelled: nobody waits
        if error is None:
            self.set_result(value)
        else:
            self.set_exception(error)
        if self.on_settle is not None:
            try:
                self.on_settle(self)
            except Exception as exc:  # noqa: BLE001 - the waiter's fault: reported, as a callback's
                self.get_loop().call_exception_handler(
                    {"message": "Exchange.on_settle failed", "exception": exc, "future": self}
                )

    def abandon(self) -> None:
        if self.connection is not None:
            self.connection._pending.pop(self.id, None)
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def cancel(self, msg: Any = None) -> bool:
        self.abandon()
        return super().cancel(msg)


class Connection(asyncio.BufferedProtocol):
    """One connection to one endpoint, carrying any number of exchanges.

    It is the protocol of its one transport: a task opens the socket and
    waits for it to be lost, and in between each reply a read completes
    settles the exchange parked under its ``id``.  Requests posted while
    the socket opens queue behind that one connect.
    """

    def __init__(
        self, host: str, port: int, metrics: WireMetrics | None = None
    ) -> None:
        self.host = host
        self.port = port
        self._metrics = metrics if metrics is not None else WireMetrics()
        self._decoder = FrameDecoder(self._metrics.bytes_in)
        self.get_buffer = self._decoder.get_buffer
        self._next_id = 0
        self._pending: dict[int, Exchange] = {}
        self._transport: asyncio.Transport | None = None
        #: Frames posted this tick (or while the socket opens), and
        #: whether the flush that sends them is scheduled.
        self._frames: list[bytes] = []
        self._flushing = False
        self._task: asyncio.Task | None = None
        self._lost: asyncio.Future | None = None
        #: Why the connection closed; ``None`` while it is usable.
        self._cause: BaseException | None = None

    @property
    def closed(self) -> bool:
        return self._cause is not None

    @property
    def established(self) -> bool:
        """The socket is open: a request sent now reuses it."""
        return self._transport is not None and self._cause is None

    @property
    def unwound(self) -> bool:
        """Closed, and its task has finished: nothing left to wait for."""
        return self.closed and (self._task is None or self._task.done())

    # -- the connection's one task, and its transport's callbacks ----------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        self._lost = loop.create_future()
        try:
            await loop.create_connection(lambda: self, self.host, self.port)
        except Exception as exc:  # noqa: BLE001 - a refusal, a port past 65535, a bad host label
            self._shut(exc)
            return
        await self._lost

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        if self._cause is not None:  # closed while it was connecting
            transport.close()
            return
        self._transport = transport
        self._metrics.connects.inc()
        self._metrics.connections_open.inc()
        self._flush()

    def buffer_updated(self, nbytes: int) -> None:
        # Whatever raises here — garbage, a reply value that does not
        # decode — shuts the connection and fails what is parked on it;
        # left to asyncio, it would only be logged.
        try:
            for reply in self._decoder.buffer_updated(nbytes):
                self._settle(reply)
        except Exception as exc:  # noqa: BLE001 - every exchange learns of it
            self._shut(exc)

    def eof_received(self) -> None:
        try:
            self._decoder.eof()
        except WireError as exc:  # hung up inside a frame
            self._shut(exc)
        self._shut(EOFError("peer closed the connection"))

    def connection_lost(self, exc: BaseException | None) -> None:
        self._shut(exc or EOFError("peer closed the connection"))
        self._lost.set_result(None)

    def _flush(self) -> None:
        self._flushing = False
        write_frames(self._transport, self._frames, self._metrics)
        self._frames.clear()

    def _settle(self, reply: dict) -> None:
        request_id = reply.get("id")
        if type(request_id) is not int:
            return  # not an id this side can have issued
        exchange = self._pending.get(request_id)
        if exchange is None:
            if 0 <= request_id < self._next_id:
                # Issued here and no longer waited for: timed out, or
                # abandoned.
                self._metrics.late_replies.inc()
            return
        value = error = None
        if reply.get("ok"):
            try:
                value = decode_value(reply.get("value"))
            except (TypeError, ValueError, KeyError) as exc:
                # Still parked: it fails with the rest, as garbage does.
                raise WireError(f"reply value does not decode: {exc}") from exc
        else:
            message = reply.get("error", "remote peer reported an error")
            error = _ERROR_TYPES.get(reply.get("error_type", ""), RemoteError)(message)
        exchange.settle(value, error)

    def _expire(self, exchange: Exchange) -> None:
        exchange.settle(
            None, RequestTimeoutError(exchange.peer_id, 1, exchange.timeout_ms)
        )

    def _shut(self, cause: BaseException) -> None:
        """Close the socket and fail everything parked on it."""
        if self._cause is not None:
            return
        self._cause = cause
        self._frames.clear()
        for exchange in list(self._pending.values()):
            self._fail(exchange)
        if self._transport is not None:
            self._transport.close()
            self._metrics.connections_open.inc(-1)

    def _fail(self, exchange: Exchange) -> None:
        """Settle one exchange with why this connection cannot serve it —
        or, when it was reused and merely hung up, re-send it, once."""
        # Refused, or answered with garbage: the peer's doing.  Anything
        # else is a hang-up, which on a reused connection proves nothing.
        definitive = self._transport is None or isinstance(self._cause, WireError)
        cache, exchange.cache = exchange.cache, None
        if cache is not None and not definitive:
            exchange.abandon()
            cache.metrics.stale_retries.inc()
            cache.get(self.host, self.port).post(exchange)
            return
        error = (PeerUnavailableError if definitive else ConnectionLostError)(
            exchange.peer_id, f"{self.host}:{self.port}"
        )
        error.__cause__ = self._cause
        exchange.settle(None, error)

    # -- requests ----------------------------------------------------------

    def post(self, exchange: Exchange) -> Exchange:
        """Park ``exchange`` under this connection's next ``id`` and queue
        its frame for the one write that ends this event-loop tick.  The
        timeout covers connect, queueing and the wait for the reply.
        """
        if self._cause is not None:
            self._fail(exchange)
            return exchange
        loop = asyncio.get_running_loop()
        if self._task is None:
            self._task = loop.create_task(self._run())
        exchange.connection = self
        exchange.id = exchange.request["id"] = self._next_id
        self._frames.append(encode_frame(exchange.request))
        self._next_id += 1
        self._pending[exchange.id] = exchange
        if exchange.timeout_ms is not None:
            exchange.timer = loop.call_later(
                exchange.timeout_ms / 1000.0, self._expire, exchange
            )
        if not self._flushing and self._transport is not None:
            self._flushing = True
            loop.call_soon(self._flush)
        return exchange

    def request(self, kind: str, payload: Any = None, **options: Any) -> Exchange:
        """Post one request/reply exchange, to be awaited; see :func:`call`
        for the contract.  A timeout abandons this request only: the
        connection and its other exchanges carry on."""
        return self.post(Exchange(kind, payload, **options))

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Hang up; requests still in flight fail as if the peer had."""
        for exchange in self._pending.values():
            exchange.cache = None  # our own doing: nothing to retry
        self._shut(ConnectionError("connection closed"))
        if self._task is not None and self._transport is None:
            self._task.cancel()  # still connecting

    async def wait_closed(self) -> None:
        """Wait for a closed connection's task and socket to unwind."""
        if self._task is not None:
            await asyncio.gather(self._task, return_exceptions=True)


class Connections:
    """A cache of live connections, one per ``(host, port)``.

    Owned by whoever outlives single requests — a cluster client, a peer
    server — which lends it to :func:`call` and closes it when it stops.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = WireMetrics(registry)
        self._live: dict[tuple[str, int], Connection] = {}
        #: Closed by :meth:`retain`, possibly still unwinding.
        self._retired: list[Connection] = []

    def get(self, host: str, port: int) -> Connection:
        """The usable connection to an endpoint, made on first use."""
        connection = self._live.get((host, port))
        if connection is None or connection.closed:
            connection = Connection(host, port, self.metrics)
            self._live[(host, port)] = connection
        return connection

    def request(
        self, host: str, port: int, kind: str, payload: Any = None, **options: Any
    ) -> Exchange:
        """:meth:`Connection.request` over the cached connection.

        A reused connection that turns out to have hung up — the peer was
        killed, or restarted, since the last exchange — is replaced and
        the request sent once more; only that fresh attempt's refusal or
        hang-up is the peer's.
        """
        exchange = Exchange(kind, payload, **options)
        connection = self.get(host, port)
        if connection.established:
            exchange.cache = self
        return connection.post(exchange)

    def retain(self, endpoints: Iterable[tuple[str, int]]) -> None:
        """Close every connection whose endpoint is not in ``endpoints``."""
        keep = set(endpoints)
        self._retired = [c for c in self._retired if not c.unwound]
        for endpoint in [e for e in self._live if e not in keep]:
            connection = self._live.pop(endpoint)
            connection.close()
            self._retired.append(connection)

    async def close(self) -> None:
        """Close every connection and wait for their tasks to finish."""
        self.retain(())
        retired, self._retired = self._retired, []
        for connection in retired:
            await connection.wait_closed()


def call(
    host: str,
    port: int,
    kind: str,
    payload: Any = None,
    *,
    connections: Connections | None = None,
    **options: Any,
) -> Awaitable[Any]:
    """One request/reply with a peer; ``options`` are :class:`Exchange`'s.

    Over ``connections`` when the caller owns a cache: the exchange is
    posted there and then (so the caller must be inside the running loop)
    beside whatever else is in flight on the cached connection, and is
    itself the awaitable returned.  Otherwise a coroutine that opens a
    connection for this request and closes it after.

    Raises :class:`~repro.errors.PeerUnavailableError` when the peer
    refuses the connection, hangs up mid-exchange, or answers with bytes
    that violate the framing, and
    :class:`~repro.errors.RequestTimeoutError` when ``timeout_ms`` elapses
    — the same exceptions the in-process transports use, so callers (the
    query engine above all) need no socket-specific handling.
    """
    if connections is not None:
        return connections.request(host, port, kind, payload, **options)
    return _call_once(host, port, kind, payload, options)


async def _call_once(host: str, port: int, kind: str, payload: Any, options: dict) -> Any:
    connection = Connection(host, port)
    try:
        return await connection.request(kind, payload, **options)
    finally:
        connection.close()
        await connection.wait_closed()


async def fetch_entries(
    call_entries: Callable[[dict], Awaitable[dict]],
    page_size: int = ENTRIES_PAGE_SIZE,
) -> list:
    """Every ``(identifier, descriptor, partition, primary)`` record of
    one peer's store, paged through ``call_entries(payload)`` — one
    ``entries`` exchange with that peer, answering ``{"total",
    "entries"}`` — so no reply outgrows the frame cap."""
    records: list = []
    while True:
        page = await call_entries({"offset": len(records), "limit": page_size})
        batch = page["entries"]
        records.extend(batch)
        if not batch or len(records) >= int(page["total"]):
            return records
