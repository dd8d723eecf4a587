"""Tests for the event-driven transport: delay, loss, crashes, retries."""

from __future__ import annotations

import pytest

from repro.errors import RequestTimeoutError, UnknownPeerError
from repro.net.latency import ConstantLatency
from repro.sim import AsyncNetwork, RetryPolicy, Simulator


def make_net(drop: float = 0.0, latency_ms: float = 10.0, seed: int = 0):
    sim = Simulator()
    net = AsyncNetwork(
        sim, latency=ConstantLatency(latency_ms), drop_probability=drop, seed=seed
    )
    return sim, net


class TestDelivery:
    def test_round_trip_takes_two_link_delays(self):
        sim, net = make_net(latency_ms=25.0)
        net.register(7, lambda msg: ("echo", msg.payload))
        future = net.send(1, 7, "ping", payload=42)
        assert not future.done
        result = sim.run_until_complete(future)
        assert result == ("echo", 42)
        assert sim.now == 50.0

    def test_unknown_recipient_rejects(self):
        _sim, net = make_net()
        future = net.send(1, 99, "ping")
        assert future.failed
        assert isinstance(future.exception(), UnknownPeerError)

    def test_both_legs_are_counted(self):
        sim, net = make_net(latency_ms=5.0)
        net.register(7, lambda msg: None)
        sim.run_until_complete(net.send(1, 7, "ping"))
        assert net.stats.messages == 2
        assert net.stats.by_kind == {"ping": 1, "ping-reply": 1}
        assert net.stats.latency_ms == pytest.approx(10.0)

    def test_concurrent_sends_interleave(self):
        sim, net = make_net(latency_ms=10.0)
        order: list[str] = []
        net.register(7, lambda msg: order.append(msg.payload))
        net.send(1, 7, "m", payload="first")
        sim.call_later(3, lambda: net.send(1, 7, "m", payload="second"))
        sim.run()
        assert order == ["first", "second"]


class TestFaults:
    def test_crashed_recipient_swallows_message(self):
        sim, net = make_net()
        handled: list[object] = []
        net.register(7, handled.append)
        net.crash(7)
        future = net.send(1, 7, "ping")
        sim.run()
        assert handled == []
        assert not future.done
        assert net.stats.drops == 1
        assert not net.is_alive(7)

    def test_recover_restores_delivery(self):
        sim, net = make_net()
        net.register(7, lambda msg: "pong")
        net.crash(7)
        net.recover(7)
        assert sim.run_until_complete(net.send(1, 7, "ping")) == "pong"

    def test_drop_probability_loses_messages(self):
        sim, net = make_net(drop=0.5, seed=3)
        net.register(7, lambda msg: "pong")
        futures = [net.send(1, 7, "ping") for _ in range(40)]
        sim.run()
        delivered = sum(1 for f in futures if f.done)
        assert 0 < delivered < 40
        assert net.stats.drops > 0

    def test_network_validates_drop_probability(self):
        with pytest.raises(ValueError):
            make_net(drop=1.0)

    def test_networks_sharing_an_injector_share_the_crashed_set(self):
        sim, net = make_net()
        other = AsyncNetwork(sim, faults=net.faults)
        for network in (net, other):
            network.register(7, lambda msg: "pong")
        net.crash(7)
        assert not other.is_alive(7)
        other.recover(7)
        assert net.is_alive(7)

    def test_scheduled_crash_and_recovery(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        sim.call_at(5.0, lambda: net.crash(7))
        sim.call_at(15.0, lambda: net.recover(7))
        lost = net.send(1, 7, "ping")  # delivery at t=10, inside the outage
        sim.run(until=12.0)
        assert not lost.done
        answered = net.send(1, 7, "ping")  # delivery at t=22, after recovery
        assert sim.run_until_complete(answered) == "pong"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)

    def test_backoff_schedule(self):
        policy = RetryPolicy(timeout_ms=100, max_retries=2, backoff=2.0)
        assert policy.total_attempts == 3
        assert [policy.timeout_for(i) for i in range(3)] == [100, 200, 400]
        assert policy.worst_case_ms() == 700


class TestRequest:
    def test_plain_request_resolves(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        assert sim.run_until_complete(net.request(1, 7, "ping")) == "pong"

    def test_drop_then_retry_succeeds(self):
        """First attempt is lost to an outage; the retry gets through."""
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        # Recovery lands after the first attempt's delivery (t=10) but
        # before the retry fires (t=100), so attempt two succeeds.
        sim.call_later(50.0, lambda: net.recover(7))
        future = net.request(
            1, 7, "ping", policy=RetryPolicy(timeout_ms=100.0, max_retries=2)
        )
        assert sim.run_until_complete(future) == "pong"
        assert net.stats.retries == 1
        assert net.stats.timeouts == 0
        assert net.stats.drops == 1
        assert sim.now == pytest.approx(120.0)  # retry at 100 + round trip

    def test_retry_exhaustion_raises_typed_timeout(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        policy = RetryPolicy(timeout_ms=100.0, max_retries=2, backoff=2.0)
        future = net.request(1, 7, "ping", policy=policy)
        with pytest.raises(RequestTimeoutError) as excinfo:
            sim.run_until_complete(future)
        assert isinstance(excinfo.value, TimeoutError)  # typed subclass
        assert excinfo.value.recipient == 7
        assert excinfo.value.attempts == policy.total_attempts
        assert excinfo.value.waited_ms == pytest.approx(policy.worst_case_ms())
        assert net.stats.timeouts == 1
        assert net.stats.retries == 2

    def test_stats_reset_clears_fault_counters(self):
        sim, net = make_net()
        net.register(7, lambda msg: None)
        net.crash(7)
        with pytest.raises(RequestTimeoutError):
            sim.run_until_complete(
                net.request(1, 7, "ping", policy=RetryPolicy(timeout_ms=10, max_retries=0))
            )
        net.stats.reset()
        assert net.stats.timeouts == 0
        assert net.stats.drops == 0
        assert net.stats.retries == 0
