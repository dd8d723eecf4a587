"""Multiplexed connections: reply matching, failure mapping, lifecycle.

Everything here runs in one event loop against a *scripted* peer — the
test reads the request frames the peer received and decides what goes
back, in which order, or whether the peer hangs up instead — so every
interleaving is chosen, not raced.  The only real time spent is the
request timeout a test is about.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.config import SystemConfig
from repro.errors import PeerUnavailableError, RequestTimeoutError
from repro.rpc import wire
from repro.rpc.server import PeerServer
from tests.framing import read_frame, write_frame

# A reader or serve task left behind surfaces when its loop is gone.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)

HOST = "127.0.0.1"


def run(scenario):
    """Run one scenario on a fresh loop; it must leave no task behind."""
    loop = asyncio.new_event_loop()
    try:
        result = loop.run_until_complete(asyncio.wait_for(scenario, 20.0))
        leaked = [task for task in asyncio.all_tasks(loop) if not task.done()]
        assert not leaked, leaked
        return result
    finally:
        loop.close()


class ScriptedPeer:
    """Accepts connections and queues every request frame for the test."""

    def __init__(self) -> None:
        self.requests: asyncio.Queue = asyncio.Queue()
        self.writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        self.port = 0

    async def __aenter__(self) -> "ScriptedPeer":
        self._server = await asyncio.start_server(self._accept, HOST, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.stop_listening()
        for writer in self.writers:
            writer.close()
        await asyncio.gather(*self._readers)

    async def _accept(self, reader, writer) -> None:
        self.writers.append(writer)
        self._readers.append(asyncio.current_task())
        try:
            while (frame := await read_frame(reader)) is not None:
                self.requests.put_nowait((frame, writer))
        finally:
            writer.close()

    def stop_listening(self) -> None:
        self._server.close()

    async def received(self, count: int) -> list:
        return [await self.requests.get() for _ in range(count)]

    @staticmethod
    async def answer(writer, request_id, value) -> None:
        await write_frame(
            writer, {"id": request_id, "ok": True, "value": value}
        )


def in_flight(connection, *payloads, **options) -> list[asyncio.Task]:
    return [
        asyncio.ensure_future(connection.request("echo", payload, **options))
        for payload in payloads
    ]


def test_replies_in_reverse_order_reach_the_right_callers():
    async def scenario():
        async with ScriptedPeer() as peer:
            connection = wire.Connection(HOST, peer.port)
            tasks = in_flight(connection, "a", "b", "c")
            frames = await peer.received(3)
            assert len({frame["id"] for frame, _ in frames}) == 3
            for frame, writer in reversed(frames):
                await peer.answer(writer, frame["id"], frame["payload"].upper())
            assert await asyncio.gather(*tasks) == ["A", "B", "C"]
            assert len(peer.writers) == 1
            connection.close()
            await connection.wait_closed()

    run(scenario())


def test_reply_after_its_timeout_is_dropped_and_the_connection_lives_on():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            with pytest.raises(RequestTimeoutError):
                await connections.request(
                    HOST, peer.port, "echo", "slow", peer_id=5, timeout_ms=30.0
                )
            ((late, writer),) = await peer.received(1)
            await peer.answer(writer, late["id"], "too late")
            task = asyncio.ensure_future(
                connections.request(HOST, peer.port, "echo", "next")
            )
            ((frame, writer),) = await peer.received(1)
            assert frame["id"] != late["id"]
            await peer.answer(writer, frame["id"], "in time")
            assert await task == "in time"
            assert connections.metrics.late_replies.get() == 1
            assert connections.metrics.connects.get() == 1
            await connections.close()

    run(scenario())


def test_hang_up_fails_every_request_in_flight():
    async def scenario():
        async with ScriptedPeer() as peer:
            connection = wire.Connection(HOST, peer.port)
            tasks = in_flight(connection, 1, 2, 3, peer_id=9)
            frames = await peer.received(3)
            frames[0][1].close()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert [type(o) for o in outcomes] == [wire.ConnectionLostError] * 3
            assert all(isinstance(o, PeerUnavailableError) for o in outcomes)
            assert {o.peer_id for o in outcomes} == {9}
            assert connection.closed
            await connection.wait_closed()

    run(scenario())


def test_garbage_reply_fails_every_request_and_drops_the_connection():
    async def scenario():
        async with ScriptedPeer() as peer:
            connection = wire.Connection(HOST, peer.port)
            tasks = in_flight(connection, 1, 2)
            ((_, writer), _) = await peer.received(2)
            writer.write(b"\x00\x00\x00\x08garbage!")
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            # Definitive, not a stale connection: nothing retries this.
            assert [type(o) for o in outcomes] == [PeerUnavailableError] * 2
            assert connection.closed
            await connection.wait_closed()

    run(scenario())


def loop_reports() -> list[dict]:
    """What the running loop reports from now on instead of logging it:
    an exception that escaped a callback lands here."""
    reported: list[dict] = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: reported.append(context)
    )
    return reported


def test_a_reply_that_does_not_decode_fails_every_exchange_at_once():
    async def scenario():
        reported = loop_reports()
        loop = asyncio.get_running_loop()
        async with ScriptedPeer() as peer:
            connection = wire.Connection(HOST, peer.port)
            tasks = in_flight(connection, 1, 2, peer_id=6, timeout_ms=60_000.0)
            ((frame, writer), _) = await peer.received(2)
            started = loop.time()
            await peer.answer(writer, frame["id"], {"$range": [1]})
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert [type(o) for o in outcomes] == [PeerUnavailableError] * 2
            assert loop.time() - started < 2.0  # not at the timeout
            assert connection.closed
            await connection.wait_closed()
        assert not reported

    run(scenario())


def test_a_request_the_dispatch_chokes_on_drops_the_connection_at_once():
    async def scenario():
        reported = loop_reports()
        loop = asyncio.get_running_loop()
        server = PeerServer("peer-0", SystemConfig(n_peers=1, seed=5, replicas=1))
        await server.start()
        connection = wire.Connection(server.host, server.port)
        try:
            assert await connection.request("ping") is True

            def choke(request):
                raise RuntimeError("a bug in the dispatch")

            server._admit = choke
            started = loop.time()
            outcomes = await asyncio.gather(
                *(
                    connection.request(
                        "fetch-partition", None, peer_id=2, timeout_ms=60_000.0
                    )
                    for _ in range(2)
                ),
                return_exceptions=True,
            )
            assert [type(o) for o in outcomes] == [wire.ConnectionLostError] * 2
            assert loop.time() - started < 2.0  # not at the timeout
            await connection.wait_closed()
            assert server.connections.metrics.connections_open.get() == 0
        finally:
            connection.close()
            await connection.wait_closed()
            await server.close()
        assert not reported

    run(scenario())


async def one_answered_exchange(peer, connections) -> None:
    task = asyncio.ensure_future(
        connections.request(HOST, peer.port, "echo", "warm")
    )
    ((frame, writer),) = await peer.received(1)
    await peer.answer(writer, frame["id"], "warm")
    assert await task == "warm"


def test_stale_reused_connection_is_retried_once_on_a_fresh_one():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            await one_answered_exchange(peer, connections)
            task = asyncio.ensure_future(
                connections.request(HOST, peer.port, "echo", "again", peer_id=4)
            )
            # The peer "restarted": the old socket dies with the request
            # unanswered, the listener is still (again) there.
            ((frame, stale),) = await peer.received(1)
            stale.close()
            ((retried, fresh),) = await peer.received(1)
            assert fresh is not stale
            assert retried["payload"] == frame["payload"] == "again"
            await peer.answer(fresh, retried["id"], "served")
            assert await task == "served"
            assert connections.metrics.stale_retries.get() == 1
            assert connections.metrics.connects.get() == 2
            assert connections.metrics.connections_open.get() == 1
            await connections.close()
            assert connections.metrics.connections_open.get() == 0

    run(scenario())


def test_refusal_of_the_fresh_attempt_is_definitive():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            await one_answered_exchange(peer, connections)
            task = asyncio.ensure_future(
                connections.request(HOST, peer.port, "echo", "again", peer_id=4)
            )
            ((_, stale),) = await peer.received(1)
            peer.stop_listening()  # the peer is really gone
            stale.close()
            with pytest.raises(PeerUnavailableError) as info:
                await task
            assert info.value.peer_id == 4
            assert connections.metrics.stale_retries.get() == 1
            assert connections.metrics.connects.get() == 1
            await connections.close()

    run(scenario())


def test_hang_up_on_a_first_use_connection_is_not_retried():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            task = asyncio.ensure_future(
                connections.request(HOST, peer.port, "echo", "first")
            )
            ((_, writer),) = await peer.received(1)
            writer.close()
            with pytest.raises(PeerUnavailableError):
                await task
            assert connections.metrics.stale_retries.get() == 0
            assert len(peer.writers) == 1
            await connections.close()

    run(scenario())


@pytest.mark.parametrize(
    "host, port",
    [(HOST, 70_000), ("x" * 64 + ".invalid", 1)],  # OverflowError, UnicodeError
)
def test_a_connect_that_raises_fails_its_requests_at_once(host, port):
    async def scenario():
        connections = wire.Connections()
        for request in (
            connections.request(host, port, "echo", timeout_ms=10_000.0),
            wire.call(host, port, "echo", timeout_ms=10_000.0),
            wire.call(host, port, "echo"),
        ):
            with pytest.raises(PeerUnavailableError):
                await asyncio.wait_for(request, 2.0)
        await connections.close()

    run(scenario())


def test_ten_concurrent_first_requests_share_one_connect():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            tasks = [
                asyncio.ensure_future(
                    connections.request(HOST, peer.port, "echo", index)
                )
                for index in range(10)
            ]
            for frame, writer in await peer.received(10):
                await peer.answer(writer, frame["id"], frame["payload"])
            assert await asyncio.gather(*tasks) == list(range(10))
            assert len(peer.writers) == 1
            assert connections.metrics.connects.get() == 1
            await connections.close()

    run(scenario())


def test_replies_with_unknown_or_malformed_ids_are_ignored():
    async def scenario():
        async with ScriptedPeer() as peer:
            connections = wire.Connections()
            task = asyncio.ensure_future(
                connections.request(HOST, peer.port, "echo", "x")
            )
            ((frame, writer),) = await peer.received(1)
            for bogus in (999, -1, "0", None, [0], {"id": 0}, True, 0.0):
                await peer.answer(writer, bogus, "not yours")
            await write_frame(writer, {"ok": True, "value": "no id"})
            await peer.answer(writer, frame["id"], "yours")
            assert await task == "yours"
            assert connections.metrics.late_replies.get() == 0
            await connections.close()

    run(scenario())


def test_retain_closes_connections_to_endpoints_that_left():
    async def scenario():
        async with ScriptedPeer() as staying, ScriptedPeer() as leaving:
            connections = wire.Connections()
            await one_answered_exchange(staying, connections)
            await one_answered_exchange(leaving, connections)
            kept = connections.get(HOST, staying.port)
            dropped = connections.get(HOST, leaving.port)
            connections.retain([(HOST, staying.port)])
            assert dropped.closed and not kept.closed
            assert connections.get(HOST, staying.port) is kept
            assert connections.metrics.connections_open.get() == 1
            await connections.close()

    run(scenario())


# -- the serving side ----------------------------------------------------------


class GatedServer(PeerServer):
    """A peer with one extra request kind that waits to be released."""

    def __init__(self) -> None:
        super().__init__("peer-gated", SystemConfig(n_peers=4, seed=7))
        self.entered = asyncio.Event()
        self.gate = asyncio.Event()
        self.handlers["wait"] = self._wait

    async def _wait(self, payload):
        self.entered.set()
        await self.gate.wait()
        return "released"


def test_a_waiting_handler_does_not_delay_the_request_behind_it():
    async def scenario():
        server = GatedServer()
        await server.start()
        connection = wire.Connection(server.host, server.port)
        try:
            waiting = asyncio.ensure_future(connection.request("wait"))
            await server.entered.wait()
            assert await connection.request("ping", timeout_ms=5000.0) is True
            assert not waiting.done()
            server.gate.set()
            assert await waiting == "released"
            assert server.connections.metrics.accepts.get() == 1
        finally:
            connection.close()
            await connection.wait_closed()
            await server.close()

    run(scenario())


def test_chaos_drop_loses_one_request_not_the_connection():
    async def scenario():
        server = GatedServer()
        await server.start()
        connections = wire.Connections()
        try:
            server.chaos_drop = 1.0
            with pytest.raises(RequestTimeoutError):
                await connections.request(
                    server.host, server.port, "ping", timeout_ms=30.0
                )
            server.chaos_drop = 0.0
            assert await connections.request(server.host, server.port, "ping")
            assert connections.metrics.connects.get() == 1
            assert server.connections.metrics.accepts.get() == 1
        finally:
            await connections.close()
            await server.close()

    run(scenario())


def test_server_close_is_prompt_with_idle_and_busy_connections_open():
    async def scenario():
        server = GatedServer()
        await server.start()
        idle = wire.Connection(server.host, server.port)
        busy = wire.Connection(server.host, server.port)
        assert await idle.request("ping") is True
        waiting = asyncio.ensure_future(busy.request("wait"))
        await server.entered.wait()
        assert server.connections.metrics.connections_open.get() == 2
        await asyncio.wait_for(server.close(), timeout=5.0)
        assert server.connections.metrics.connections_open.get() == 0
        # Both callers learn of it: the parked request fails, and the idle
        # connection refuses further use.
        with pytest.raises(PeerUnavailableError):
            await waiting
        with pytest.raises(PeerUnavailableError):
            await idle.request("ping", timeout_ms=5000.0)
        await idle.wait_closed()
        await busy.wait_closed()

    run(scenario())
