"""The tick-batched live path: commit before ack, one write per tick,
exchanges as parked callbacks.

Everything runs in one event loop, no processes.  The server is a real
:class:`~repro.rpc.server.PeerServer`; the requester is either a raw
socket (so the test decides which frames share a segment, hence a tick)
or the program's own :class:`~repro.rpc.wire.Connection` /
:class:`~repro.rpc.client.SocketTransport` against the scripted peer of
``test_rpc_connection``.
"""

from __future__ import annotations

import asyncio
import os
import socket

import pytest

from repro.core.config import SystemConfig
from repro.db.partition import PartitionDescriptor
from repro.errors import PeerUnavailableError, RequestTimeoutError
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.client import SocketTransport
from repro.rpc.server import PeerServer
from repro.sim.policies import Request
from repro.storage import wal
from tests.framing import read_frame
from tests.test_rpc_connection import HOST, ScriptedPeer, run

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


def desc(start: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(start, start + 9))


def frame(request_id: int, kind: str, payload) -> bytes:
    return wire.encode_frame(
        {"id": request_id, "kind": kind, "sender": 1, "payload": wire.encode_value(payload)}
    )


def store_frame(request_id: int) -> bytes:
    return frame(request_id, "store-request", (request_id, desc(request_id), None, True))


async def boot(data_dir=None) -> PeerServer:
    server = PeerServer(
        "peer-0", SystemConfig(n_peers=1, seed=5, replicas=1),
        data_dir=str(data_dir) if data_dir else None,
    )
    await server.start()
    return server


async def replies(reader, count: int) -> dict[int, dict]:
    got = [await read_frame(reader) for _ in range(count)]
    return {reply["id"]: reply for reply in got}


def histogram(server: PeerServer, name: str) -> tuple[int, float]:
    metric = server.metrics.histogram(name)
    return metric.count(), metric.sum()


def kind_labels(server: PeerServer, name: str) -> list[str]:
    (family,) = [
        family for family in server.metrics.snapshot()["metrics"]
        if family["name"] == name
    ]
    return sorted(series["labels"]["kind"] for series in family["series"])


class Journal:
    """Orders the server's fsyncs against the bytes its sockets write."""

    def __init__(self, monkeypatch) -> None:
        self.events: list[tuple] = []
        self.fail_next = False
        real = os.fsync

        def fsync(fd):
            if self.fail_next:
                self.fail_next = False
                raise OSError("disk on fire")
            real(fd)
            self.events.append(("fsync",))

        monkeypatch.setattr(wal.os, "fsync", fsync)

    def record(self, server: PeerServer) -> None:
        """Wrap the transport of every connection the server has open."""
        for index, transport in enumerate(server._inbound.values()):
            real = transport.write

            def write(data, real=real, index=index):
                self.events.append(("write", index, len(bytes(data))))
                real(data)

            transport.write = write

    @property
    def kinds(self) -> list[str]:
        return [event[0] for event in self.events]


# -- (a) one commit per tick, and it comes first ------------------------------


def test_stores_of_one_tick_share_one_fsync_that_precedes_every_reply_byte(
    tmp_path, monkeypatch
):
    async def scenario():
        server = await boot(tmp_path / "peer-0")
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(frame(0, "ping", None))  # the connection exists
            await replies(reader, 1)
            journal = Journal(monkeypatch)
            journal.record(server)
            wrote = server.connections.metrics.writes.get()
            writer.write(b"".join(store_frame(i) for i in range(1, 6)))
            got = await replies(reader, 5)
            assert sorted(got) == [1, 2, 3, 4, 5]
            assert all(reply["ok"] and reply["value"] for reply in got.values())
            assert journal.kinds == ["fsync", "write"]
            assert histogram(server, "wal.records_per_commit") == (1, 5.0)
            assert histogram(server, "wal.fsync_ms")[0] == 1
            assert server.connections.metrics.writes.get() == wrote + 1
        finally:
            writer.close()
            await server.close()

    run(scenario())


def test_stores_on_two_connections_in_one_tick_share_the_fsync(tmp_path, monkeypatch):
    async def scenario():
        server = await boot(tmp_path / "peer-0")
        ends = [
            await asyncio.open_connection(server.host, server.port) for _ in range(2)
        ]
        try:
            for reader, writer in ends:
                writer.write(frame(0, "ping", None))
                await replies(reader, 1)
            journal = Journal(monkeypatch)
            journal.record(server)
            # Both segments are in the kernel before the loop looks again.
            ends[0][1].write(store_frame(1) + store_frame(2))
            ends[1][1].write(store_frame(3))
            first = await replies(ends[0][0], 2)
            second = await replies(ends[1][0], 1)
            assert sorted(first) == [1, 2] and sorted(second) == [3]
            assert journal.kinds == ["fsync", "write", "write"]
            assert {event[1] for event in journal.events[1:]} == {0, 1}
            assert histogram(server, "wal.records_per_commit") == (1, 3.0)
        finally:
            for _, writer in ends:
                writer.close()
            await server.close()

    run(scenario())


def test_a_single_store_is_one_record_one_commit_one_frame_one_write(tmp_path):
    async def scenario():
        server = await boot(tmp_path / "peer-0")
        connections = wire.Connections()
        try:
            stored = await connections.request(
                server.host, server.port, "store-request", (7, desc(7), None, True)
            )
            assert stored is True
            assert histogram(server, "wal.records_per_commit") == (1, 1.0)
            for metrics in (connections.metrics, server.connections.metrics):
                assert metrics.frames_out.get() == metrics.writes.get() == 1
        finally:
            await connections.close()
            await server.close()

    run(scenario())


def test_a_failed_commit_answers_the_parked_replies_with_the_error(
    tmp_path, monkeypatch
):
    async def scenario():
        server = await boot(tmp_path / "peer-0")
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            journal = Journal(monkeypatch)
            journal.fail_next = True
            writer.write(store_frame(1) + store_frame(2))
            got = await replies(reader, 2)
            assert sorted(got) == [1, 2]
            for reply in got.values():
                assert not reply["ok"]
                assert reply["error_type"] == "OSError"
                assert "disk on fire" in reply["error"]
            # The records are still buffered: the next commit covers them.
            writer.write(store_frame(3))
            assert (await replies(reader, 1))[3]["ok"]
            assert histogram(server, "wal.records_per_commit") == (1, 3.0)
        finally:
            writer.close()
            await server.close()

    run(scenario())


# -- graceful stop loses nothing -----------------------------------------------


def test_close_commits_what_is_journaled_and_answers_what_is_parked(tmp_path):
    async def scenario():
        data_dir = tmp_path / "peer-0"
        server = await boot(data_dir)
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(frame(0, "ping", None))
        await replies(reader, 1)
        # Journaled and answered, but the tick has not ended: no commit
        # has run, no reply has left.
        (server_writer,) = server._inbound.values()
        for request_id in (1, 2, 3):
            payload = wire.encode_value((request_id, desc(request_id), None, True))
            server._serve(
                {"id": request_id, "kind": "store-request", "payload": payload},
                server_writer,
            )
        assert histogram(server, "wal.records_per_commit")[0] == 0
        assert wal.read_wal_tolerant(data_dir / "wal.log")[0] == []
        await server.close()
        acked = await replies(reader, 3)
        assert sorted(acked) == [1, 2, 3] and all(r["ok"] for r in acked.values())
        assert await read_frame(reader) is None  # then the hang-up
        writer.close()

        reborn = await boot(data_dir)
        try:
            held = sorted(identifier for identifier, _ in reborn.store.entries())
            assert held == [1, 2, 3]
        finally:
            await reborn.close()

    run(scenario())


# -- (d) pipelined requests: one write each way, matched by id ------------------


def test_pipelined_requests_answer_in_one_write_and_match_by_id():
    async def scenario():
        server = await boot()
        connection = wire.Connection(server.host, server.port)
        try:
            for identifier in range(5):
                server.store.store(identifier, desc(10 * identifier))
            assert await connection.request("ping")
            client, peer = connection._metrics, server.connections.metrics
            before = (client.writes.get(), peer.writes.get())
            found = await asyncio.gather(*(
                connection.request(
                    "match-request",
                    (identifier, IntRange(10 * identifier, 10 * identifier + 9), "R", "value"),
                )
                for identifier in range(5)
            ))
            assert [descriptor for descriptor, _ in found] == [
                desc(10 * identifier) for identifier in range(5)
            ]
            assert client.writes.get() == before[0] + 1
            assert peer.writes.get() == before[1] + 1
            assert client.writes.get() < client.frames_out.get() == 6
            assert peer.writes.get() < peer.frames_out.get() == 6
        finally:
            connection.close()
            await connection.wait_closed()
            await server.close()

    run(scenario())


# -- (e) chaos still acts per request, data plane included ----------------------


def test_chaos_drop_and_delay_act_on_single_data_plane_requests():
    async def scenario():
        server = await boot()
        connections = wire.Connections()
        match = (3, IntRange(0, 9), "R", "value")

        async def ask(**options):
            return await connections.request(
                server.host, server.port, "match-request", match, **options
            )

        try:
            assert await ask() is None
            server.chaos_drop = 1.0
            with pytest.raises(RequestTimeoutError):
                await ask(timeout_ms=30.0)
            server.chaos_drop = 0.0
            server.chaos_delay_ms = 60.0
            loop = asyncio.get_running_loop()
            started = loop.time()
            slow = asyncio.ensure_future(ask())
            await asyncio.sleep(0.01)
            server.chaos_delay_ms = 0.0
            assert await ask() is None  # not held up behind the delayed one
            assert not slow.done()
            assert await slow is None
            assert loop.time() - started >= 0.06
            assert connections.metrics.connects.get() == 1
        finally:
            await connections.close()
            await server.close()

    run(scenario())


# -- garbage kinds do not mint label series ------------------------------------


def test_unserved_kinds_are_counted_as_unknown():
    async def scenario():
        server = await boot()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            bogus = ["nope", "x" * 300, 17, None, ["match-request"]]
            writer.write(b"".join(
                wire.encode_frame({"id": index, "kind": kind})
                for index, kind in enumerate(bogus)
            ) + frame(9, "ping", None))
            got = await replies(reader, len(bogus) + 1)
            assert got[9]["ok"]
            for index in range(len(bogus)):
                assert got[index]["error_type"] == "ConfigError"
                assert "unknown message kind" in got[index]["error"]
            for name in ("server.requests", "server.service_ms"):
                assert kind_labels(server, name) == ["ping", "unknown"], name
            assert server.metrics.counter("server.requests").get(kind="unknown") == 5
        finally:
            writer.close()
            await server.close()

    run(scenario())


# -- (c) exchanges as parked callbacks ------------------------------------------


def armed(loop) -> list:
    """The wire layer's timer handles (request timeouts, retry backoffs)
    still waiting to fire."""
    return [
        handle for handle in loop._scheduled
        if not handle.cancelled() and isinstance(
            getattr(handle._callback, "__self__", None),
            (wire.Connection, Request),
        )
    ]


def test_posted_exchanges_are_futures_that_time_out_and_cancel_alone():
    async def scenario():
        async with ScriptedPeer() as peer:
            loop = asyncio.get_running_loop()
            connection = wire.Connection(HOST, peer.port)
            # Posted by the call itself — nothing is awaited, no task made.
            slow = connection.request("echo", "slow", peer_id=3, timeout_ms=30.0)
            tasks = asyncio.all_tasks()  # the connection's reader is one
            fine = connection.request("echo", "fine", timeout_ms=5000.0)
            dropped = connection.request("echo", "dropped", timeout_ms=5000.0)
            assert isinstance(fine, asyncio.Future) and asyncio.all_tasks() == tasks
            frames = await peer.received(3)
            assert [f["payload"] for f, _ in frames] == ["slow", "fine", "dropped"]
            assert connection._metrics.writes.get() == 1  # one tick, one write
            assert dropped.cancel()
            assert sorted(connection._pending) == [0, 1] and len(armed(loop)) == 2
            await asyncio.sleep(0.06)
            assert isinstance(slow.exception(), RequestTimeoutError)
            assert slow.exception().recipient == 3 and not fine.done()
            for request, writer in frames:
                await peer.answer(writer, request["id"], request["payload"].upper())
            assert await fine == "FINE"
            assert connection._metrics.late_replies.get() == 2
            assert not connection._pending and not armed(loop)
            connection.close()
            await connection.wait_closed()

    run(scenario())


def test_closing_before_the_flush_fails_every_queued_exchange():
    async def scenario():
        async with ScriptedPeer() as peer:
            connection = wire.Connection(HOST, peer.port)
            warm = connection.request("echo", "open")
            await answer_one(peer)
            assert await warm == "ok"
            queued = [
                connection.request("echo", index, peer_id=8, timeout_ms=5000.0)
                for index in range(3)
            ]
            connection.close()  # same tick: the frames never left
            errors = [future.exception() for future in queued]
            assert [type(error) for error in errors] == [wire.ConnectionLostError] * 3
            assert {error.peer_id for error in errors} == {8}
            await connection.wait_closed()
            await asyncio.sleep(0.02)
            assert peer.requests.empty()
            assert not armed(asyncio.get_running_loop())

    run(scenario())


async def answer_one(peer: ScriptedPeer, value="ok") -> bool:
    ((request, writer),) = await peer.received(1)
    await peer.answer(writer, request["id"], value)
    return True


def transport_to(peer: ScriptedPeer, **options) -> SocketTransport:
    transport = SocketTransport({1: (HOST, peer.port)}, **options)
    transport.connections = wire.Connections()
    return transport


async def settled(future, timeout_s: float = 5.0):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not future.done:
        assert asyncio.get_running_loop().time() < deadline, "never settled"
        await asyncio.sleep(0.005)
    return future


def test_transport_retries_a_timeout_and_the_first_reply_wins_over_the_retry():
    async def scenario():
        async with ScriptedPeer() as peer:
            transport = transport_to(peer, timeout_ms=40.0, retries=1, policies=False)
            events: list = []
            future = transport.request(
                0, 1, "echo", "hi", observer=lambda name, attrs: events.append(name)
            )
            ((first, writer),) = await peer.received(1)
            ((second, _),) = await peer.received(1)  # the retry, same connection
            assert second["id"] != first["id"] and second["payload"] == "hi"
            await peer.answer(writer, first["id"], "too late")
            assert (await settled(future)).result() == "too late"
            await peer.answer(writer, second["id"], "in time")  # let go of
            await asyncio.sleep(0.02)
            assert events == ["send", "retry", "send", "reply"]
            assert (transport.stats.timeouts, transport.stats.retries) == (0, 1)
            assert transport.stats.messages == 2
            metrics = transport.connections.metrics
            assert metrics.late_replies.get() == 1 and metrics.connects.get() == 1
            assert transport.is_alive(1) and not transport._live
            transport.close()
            await transport.connections.close()
            assert not armed(asyncio.get_running_loop())

    run(scenario())


def test_transport_retries_a_stale_connection_once_and_only_then_marks_dead():
    async def scenario():
        async with ScriptedPeer() as peer:
            transport = transport_to(peer, policies=False)
            warm = transport.request(0, 1, "echo", "warm")
            await answer_one(peer)
            assert (await settled(warm)).result() == "ok"

            again = transport.request(0, 1, "echo", "again")
            ((_, stale),) = await peer.received(1)
            stale.close()  # the peer "restarted": same port, new socket
            await answer_one(peer, "served")
            assert (await settled(again)).result() == "served"
            assert transport.connections.metrics.stale_retries.get() == 1
            assert transport.is_alive(1)

            gone = transport.request(0, 1, "echo", "gone")
            ((_, stale),) = await peer.received(1)
            peer.stop_listening()
            stale.close()
            assert isinstance((await settled(gone)).exception(), PeerUnavailableError)
            assert not transport.is_alive(1)
            assert transport.connections.metrics.stale_retries.get() == 2
            await transport.connections.close()

    run(scenario())


def test_cancelled_and_closed_exchanges_leave_nothing_parked_or_armed():
    async def scenario():
        async with ScriptedPeer() as peer:
            transport = transport_to(peer, timeout_ms=30.0, retries=3)
            loop = asyncio.get_running_loop()
            connection = transport.connections.get(HOST, peer.port)

            loser = transport.request(0, 1, "echo", "hedge loser")
            ((request, writer),) = await peer.received(1)
            assert loser.cancel()
            assert not connection._pending and not transport._live and not armed(loop)
            await peer.answer(writer, request["id"], "nobody waits")
            await asyncio.sleep(0.02)
            assert transport.connections.metrics.late_replies.get() == 1

            # One waiting for its reply, one waiting out a backoff.
            backing_off = transport.request(0, 1, "echo", "silence")
            await peer.received(1)
            while transport.stats.retries == 0:
                await asyncio.sleep(0.005)
            waiting = transport.request(0, 1, "echo", "more silence")
            assert len(transport._live) == 2 and armed(loop)
            transport.close()
            assert not connection._pending and not transport._live and not armed(loop)
            assert not backing_off.done and not waiting.done
            await transport.connections.close()

    run(scenario())


# -- (f) backpressure: a caller that takes no replies is not read from ----------


def test_a_caller_that_reads_no_replies_stops_being_read_then_gets_every_reply():
    async def scenario():
        server = await boot()
        count = 25_000
        served = server.metrics.counter("server.requests")
        sock = socket.socket()
        # Small kernel buffers on both ends, so the replies back up into
        # the server's own write buffer instead of into the kernel.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (server.host, server.port))
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            writer.write(frame(0, "ping", None))  # the connection exists
            await replies(reader, 1)
            (inbound,) = server._inbound.values()
            inbound.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            writer.write(b"".join(frame(i, "ping", None) for i in range(1, count + 1)))
            stalled, last = 0, -1
            while stalled < 5:
                await asyncio.sleep(0.02)
                now = served.get(kind="ping")
                stalled, last = (stalled + 1 if now == last else 0), now
            assert last < count  # stopped reading while nobody took replies
            got = [await read_frame(reader) for _ in range(count)]
            assert sorted(reply["id"] for reply in got) == list(range(1, count + 1))
            assert all(reply["ok"] for reply in got)
            assert served.get(kind="ping") == count + 1
        finally:
            writer.close()
            await server.close()

    run(scenario())
