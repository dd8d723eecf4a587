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

:class:`Connection` is the one exchange primitive: it owns the socket and
a reader task, parks one future per in-flight ``id`` and fails them all
when the peer hangs up or sends bytes that violate the framing.
:class:`Connections` caches one per ``(host, port)`` for owners that
live long (a :class:`~repro.rpc.client.ClusterClient`, a
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
    "write_frame",
    "read_frame",
    "WireMetrics",
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
    """The byte stream violated the framing protocol.

    Raised for a length prefix past :data:`MAX_FRAME_BYTES`, a frame body
    that is not valid JSON (garbage bytes under a plausible prefix), a
    JSON body that is not an object, and a peer that died *mid-frame*
    (the prefix arrived but the body never completed).  A clean EOF
    before any prefix byte is not an error — :func:`read_frame` returns
    ``None`` for that — but every torn, oversized or corrupt frame
    surfaces as this one typed error so servers can drop the connection
    and clients can treat the peer as unavailable, and nothing ever
    hangs on a half-delivered frame.
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
    body = dataclasses.asdict(config)
    return body


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
        self.bytes_in = registry.counter(
            "wire.bytes_in", help="frame bytes read"
        )
        self.late_replies = registry.counter(
            "wire.late_replies",
            help="replies discarded because their request had timed out",
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


async def write_frame(writer: asyncio.StreamWriter, document: dict) -> None:
    """Send one length-prefixed JSON frame."""
    writer.write(encode_frame(document))
    await writer.drain()


async def read_frame(
    reader: asyncio.StreamReader, bytes_in: Counter | None = None
) -> dict | None:
    """Read one frame; ``None`` on a clean EOF before the length prefix.

    Anything else that violates the framing — an oversized or torn frame,
    a body that is not a JSON object — raises :class:`WireError`.
    ``bytes_in`` is charged the size of every complete frame.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise WireError(
            f"peer died {len(exc.partial)} byte(s) into a length prefix"
        ) from exc
    except ConnectionResetError:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"peer announced a {length}-byte frame; refusing")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise WireError(
            f"peer died mid-frame ({length} bytes announced)"
        ) from exc
    if bytes_in is not None:
        bytes_in.inc(_LENGTH.size + length)
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise WireError(
            f"frame body is {type(document).__name__}, expected an object"
        )
    return document


# ---------------------------------------------------------------------------
# Multiplexed exchanges
# ---------------------------------------------------------------------------

#: Error types a peer may report, mapped back to library exceptions so
#: the engine's failover logic works unchanged over sockets.
_ERROR_TYPES = {
    "ConfigError": ConfigError,
    "StorageError": StorageError,
}


class ConnectionLostError(PeerUnavailableError):
    """The peer hung up (EOF or reset) with this request unanswered.

    Definitive on a connection opened for the request; on a reused one it
    only says the *connection* was stale, and :class:`Connections`
    retries on a fresh one.
    """


class Connection:
    """One connection to one endpoint, carrying any number of exchanges.

    A single task opens the socket and then reads reply frames for as
    long as the connection lives, resolving the future parked under each
    reply's ``id``.  Requests that arrive while the socket is still
    opening share that one ``open_connection``.
    """

    def __init__(
        self, host: str, port: int, metrics: WireMetrics | None = None
    ) -> None:
        self.host = host
        self.port = port
        self._metrics = metrics if metrics is not None else WireMetrics()
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._writer: asyncio.StreamWriter | None = None
        # drain() from several tasks at once asserts on Python 3.10.
        self._write_lock = asyncio.Lock()
        self._opened: asyncio.Future | None = None
        self._task: asyncio.Task | None = None
        #: Why the connection closed; ``None`` while it is usable.
        self._cause: BaseException | None = None

    @property
    def closed(self) -> bool:
        return self._cause is not None

    @property
    def established(self) -> bool:
        """The socket is open: a request sent now reuses it."""
        return self._writer is not None and self._cause is None

    @property
    def unwound(self) -> bool:
        """Closed, and its task has finished: nothing left to wait for."""
        return self.closed and (self._task is None or self._task.done())

    # -- the connection's one task ---------------------------------------

    async def _run(self) -> None:
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except OSError as exc:
            self._shut(exc)
            return
        self._writer = writer
        self._metrics.connects.inc()
        self._metrics.connections_open.inc()
        self._opened.set_result(None)
        try:
            while True:
                reply = await read_frame(reader, self._metrics.bytes_in)
                if reply is None:
                    raise EOFError("peer closed the connection")
                self._settle(reply)
        except (EOFError, OSError, WireError) as exc:
            self._shut(exc)

    def _settle(self, reply: dict) -> None:
        request_id = reply.get("id")
        if type(request_id) is not int:
            return  # not an id this side can have issued
        future = self._pending.get(request_id)
        if future is not None and not future.done():
            future.set_result(reply)
        elif 0 <= request_id < self._next_id:
            # Issued here and no longer waited for: its request timed out.
            self._metrics.late_replies.inc()

    def _shut(self, cause: BaseException) -> None:
        """Close the socket and fail everything parked on it."""
        if self._cause is not None:
            return
        self._cause = cause
        if self._writer is not None:
            self._writer.close()
            self._metrics.connections_open.inc(-1)
        if self._opened is not None and not self._opened.done():
            self._opened.set_exception(cause)
            self._opened.exception()  # retrieved: nobody may be waiting
        for future in self._pending.values():
            if not future.done():
                future.set_exception(cause)

    # -- requests ----------------------------------------------------------

    async def request(
        self,
        kind: str,
        payload: Any = None,
        *,
        sender: int = -1,
        sender_address: str | None = None,
        peer_id: int = -1,
        timeout_ms: float | None = None,
        trace: dict | None = None,
    ) -> Any:
        """One request/reply exchange; see :func:`call` for the contract.

        A timeout abandons this request only: the connection and its
        other exchanges carry on, and the reply, should it still come, is
        dropped by its ``id``.
        """
        request = {"kind": kind, "sender": sender, "payload": encode_value(payload)}
        if sender_address is not None:
            request["from"] = sender_address
        if trace is not None:
            request["trace"] = trace
        exchange = self._exchange(request, peer_id)
        if timeout_ms is None:
            reply = await exchange
        else:
            try:
                reply = await asyncio.wait_for(exchange, timeout_ms / 1000.0)
            except asyncio.TimeoutError as exc:
                raise RequestTimeoutError(peer_id, 1, timeout_ms) from exc
        if reply.get("ok"):
            return decode_value(reply.get("value"))
        error_type = reply.get("error_type", "")
        message = reply.get("error", "remote peer reported an error")
        raise _ERROR_TYPES.get(error_type, RemoteError)(message)

    async def _exchange(self, request: dict, peer_id: int) -> dict:
        if self._task is None:
            loop = asyncio.get_running_loop()
            self._opened = loop.create_future()
            self._task = loop.create_task(self._run())
        request_id = None
        try:
            if not self._opened.done():
                # Shielded: one waiter's timeout must not cancel the open
                # the others share.
                await asyncio.shield(self._opened)
            if self._cause is not None:
                raise self._cause
            request_id = request["id"] = self._next_id
            self._next_id += 1
            frame = encode_frame(request)
            reply = asyncio.get_running_loop().create_future()
            self._pending[request_id] = reply
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
            self._metrics.bytes_out.inc(len(frame))
            return await reply
        except (OSError, EOFError, WireError) as exc:
            self._shut(exc)  # a failed write: the reader may not know yet
            if self._writer is None or isinstance(exc, WireError):
                # Refused, or answered with garbage: the peer's doing.
                raise PeerUnavailableError(peer_id) from exc
            raise ConnectionLostError(peer_id) from exc
        finally:
            self._pending.pop(request_id, None)

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Hang up; requests still in flight fail as if the peer had."""
        self._shut(ConnectionError("connection closed"))
        if self._task is not None:
            self._task.cancel()

    async def wait_closed(self) -> None:
        """Wait for a closed connection's task and socket to unwind."""
        if self._task is not None:
            await asyncio.gather(self._task, return_exceptions=True)
        if self._writer is not None:
            try:
                await self._writer.wait_closed()
            except OSError:  # pragma: no cover - teardown race
                pass


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

    async def request(
        self, host: str, port: int, kind: str, payload: Any = None, **options: Any
    ) -> Any:
        """:meth:`Connection.request` over the cached connection.

        A reused connection that turns out to have hung up — the peer was
        killed, or restarted, since the last exchange — is replaced and
        the request sent once more; only that fresh attempt's refusal or
        hang-up is the peer's.
        """
        connection = self.get(host, port)
        reused = connection.established
        try:
            return await connection.request(kind, payload, **options)
        except ConnectionLostError:
            if not reused:
                raise
        self.metrics.stale_retries.inc()
        return await self.get(host, port).request(kind, payload, **options)

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


async def call(
    host: str,
    port: int,
    kind: str,
    payload: Any = None,
    *,
    sender: int = -1,
    sender_address: str | None = None,
    peer_id: int = -1,
    timeout_ms: float | None = None,
    trace: dict | None = None,
    connections: Connections | None = None,
) -> Any:
    """One request/reply with a peer.

    Over ``connections`` when the caller owns a cache (the exchange joins
    whatever else is in flight on the cached connection); otherwise over
    a connection opened for this request and closed after it.

    Raises :class:`~repro.errors.PeerUnavailableError` when the peer
    refuses the connection, hangs up mid-exchange, or answers with bytes
    that violate the framing, and
    :class:`~repro.errors.RequestTimeoutError` when ``timeout_ms`` elapses
    — the same exceptions the in-process transports use, so callers (the
    query engine above all) need no socket-specific handling.

    ``sender_address`` identifies the calling *peer* (servers calling
    servers set it); the chaos connection filter uses it to enforce
    partitions, and clients leave it unset.  ``trace`` is the optional
    distributed-trace envelope (:class:`repro.obs.distributed.TraceContext`
    wire form); peers that predate it ignore the extra field, so traced
    and untraced requests are interchangeable on the wire.
    """
    options = {
        "sender": sender, "sender_address": sender_address,
        "peer_id": peer_id, "timeout_ms": timeout_ms, "trace": trace,
    }
    if connections is not None:
        return await connections.request(host, port, kind, payload, **options)
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
