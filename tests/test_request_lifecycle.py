"""One request lifecycle for both clocked transports.

:class:`~repro.sim.policies.Request` runs a request on the event-driven
:class:`~repro.sim.network.AsyncNetwork` and on the live
:class:`~repro.rpc.client.SocketTransport` alike; each transport supplies
only one attempt.  Every case below runs on both — on the kernel, and
against the scripted peer of ``test_rpc_connection`` — and must give the
same observer events, the same ``(retries, timeouts)`` and the same
outcome.  Both run under one owner policy: 2 attempts of equal patience.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import FutureCancelledError
from repro.net.latency import ConstantLatency, LatencyModel
from repro.rpc import wire
from repro.rpc.client import SocketTransport
from repro.sim import AsyncNetwork, CircuitBreaker, JitteredBackoff, RetryPolicy, Simulator
from tests.test_rpc_connection import HOST, ScriptedPeer, run
from tests.test_rpc_tick import armed, settled

#: case -> (observer events, (retries, timeouts), outcome)
CASES = {
    "answered at the first try": (["send", "reply"], (0, 0), "reply"),
    "silent first attempt, then an answer": (
        ["send", "retry", "send", "reply"], (1, 0), "reply",
    ),
    "the superseded attempt's reply lands first and wins": (
        ["send", "retry", "send", "reply"], (1, 0), "reply",
    ),
    "every attempt silent": (
        ["send", "retry", "send", "timeout"], (1, 1), "RequestTimeoutError",
    ),
    "breaker open": (["breaker-open"], (0, 0), "OpenCircuitError"),
    "cancelled during backoff": (["send", "retry"], (1, 0), "cancelled"),
}

#: The patience of each attempt; the live side waits real milliseconds.
PATIENCE_MS = 150.0


def outcome(future) -> str:
    if future.cancelled:
        assert isinstance(future.exception(), FutureCancelledError)
        return "cancelled"
    if future.failed:
        return type(future.exception()).__name__
    return "reply"


def open_breaker(transport) -> None:
    transport.breaker = CircuitBreaker(
        transport.now, failure_threshold=1, cooldown_ms=60_000.0
    )
    transport.breaker.record_failure(1)


def long_backoff() -> JitteredBackoff:
    return JitteredBackoff(base_ms=60_000.0, cap_ms=60_000.0, jitter=0.0)


class Scripted(LatencyModel):
    """Each message's delay, in the order the network samples them."""

    def __init__(self, delays: list[float]) -> None:
        self.delays = delays

    def sample_ms(self, sender: int, recipient: int) -> float:
        return self.delays.pop(0)


def on_the_kernel(case: str) -> tuple:
    sim = Simulator()
    latency: LatencyModel = ConstantLatency(10.0)
    if case == "the superseded attempt's reply lands first and wins":
        # Sampled as sent: attempt 0 out (t=0), attempt 1 out (t=150)
        # and back (t=160), attempt 0 back (t=200).  Attempt 0's reply
        # lands at 210, attempt 1's at 260.
        latency = Scripted([200.0, 10.0, 100.0, 10.0])
    net = AsyncNetwork(sim, latency, policy=RetryPolicy(PATIENCE_MS, 1, 1.0))
    served: list[float] = []
    net.register(1, lambda message: served.append(sim.now) or sim.now)
    events: list[str] = []

    def request():
        return net.request(0, 1, "ping", observer=lambda name, _: events.append(name))

    if case == "silent first attempt, then an answer":
        net.crash(1)
        sim.call_later(50.0, lambda: net.recover(1))
    elif case == "every attempt silent":
        net.crash(1)
    elif case == "breaker open":
        open_breaker(net)
    elif case == "cancelled during backoff":
        net.crash(1)
        net.backoff = long_backoff()
        future = request()
        sim.run(until=PATIENCE_MS + 1.0)
        assert future.cancel()
        assert sim.pending == 0 and not net._live
        return events, (net.stats.retries, net.stats.timeouts), outcome(future)
    future = request()
    sim.run()
    if case == "the superseded attempt's reply lands first and wins":
        assert future.result() == 200.0 and served == [160.0, 200.0]
        assert sim.now == 260.0
    assert sim.pending == 0 and not net._live
    return events, (net.stats.retries, net.stats.timeouts), outcome(future)


def on_sockets(case: str) -> tuple:
    async def scenario():
        async with ScriptedPeer() as peer:
            transport = SocketTransport(
                {1: (HOST, peer.port)}, timeout_ms=PATIENCE_MS, retries=1,
                policies=False,
            )
            transport.connections = wire.Connections()
            events: list[str] = []
            if case == "breaker open":
                open_breaker(transport)
            elif case == "cancelled during backoff":
                transport.backoff = long_backoff()
            future = transport.request(
                0, 1, "echo", "hi", observer=lambda name, _: events.append(name)
            )
            if case == "answered at the first try":
                ((first, writer),) = await peer.received(1)
                await peer.answer(writer, first["id"], "attempt 0")
            elif case == "silent first attempt, then an answer":
                _, (second, writer) = await peer.received(2)
                await peer.answer(writer, second["id"], "attempt 1")
            elif case == "the superseded attempt's reply lands first and wins":
                (first, writer), _ = await peer.received(2)
                await peer.answer(writer, first["id"], "attempt 0")
            elif case == "cancelled during backoff":
                await peer.received(1)
                while transport.stats.retries == 0:
                    await asyncio.sleep(0.005)
                assert future.cancel()
            await settled(future)
            if case == "the superseded attempt's reply lands first and wins":
                assert future.result() == "attempt 0"
            elif case == "breaker open":
                await asyncio.sleep(0.02)
                assert peer.requests.empty()  # nothing was sent
            connection = transport.connections.get(HOST, peer.port)
            assert not connection._pending and not transport._live
            assert not armed(asyncio.get_running_loop())
            await transport.connections.close()
            return events, (transport.stats.retries, transport.stats.timeouts), outcome(future)

    return run(scenario())


@pytest.mark.parametrize("case", CASES)
def test_both_clocked_transports_run_one_lifecycle(case):
    assert on_the_kernel(case) == CASES[case]
    assert on_sockets(case) == CASES[case]

