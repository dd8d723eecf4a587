"""Tests for the overload-protection layer end to end.

Covers the bounded per-peer service queue (queueing delay, busy shed),
grey-failure injection, replies to crashed requesters, breaker-gated
requests, hedged lookups, partial-quorum completion, the open-loop
driver, and the passivity guarantee that protections default to off.
"""

from __future__ import annotations

import pytest

from repro.core.config import ConfigError, SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import OpenCircuitError, PeerBusyError, RequestTimeoutError
from repro.net.latency import ConstantLatency, SeededLatency
from repro.ranges.interval import IntRange
from repro.sim import (
    AsyncNetwork,
    AsyncQueryEngine,
    CircuitBreaker,
    FaultInjector,
    RetryPolicy,
    Simulator,
)


def make_net(latency_ms: float = 10.0, **kwargs) -> tuple[Simulator, AsyncNetwork]:
    sim = Simulator()
    net = AsyncNetwork(sim, latency=ConstantLatency(latency_ms), **kwargs)
    return sim, net


class TestBoundedQueue:
    def test_queue_requires_positive_service_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            AsyncNetwork(sim, queue_capacity=2, service_time_ms=0.0)
        with pytest.raises(ValueError):
            AsyncNetwork(sim, queue_capacity=-1)
        with pytest.raises(ValueError):
            AsyncNetwork(sim, service_time_ms=-1.0)

    def test_service_time_serializes_concurrent_requests(self):
        sim, net = make_net(latency_ms=10.0, queue_capacity=4, service_time_ms=50.0)
        net.register(7, lambda msg: "pong")
        first = net.send(1, 7, "ping")
        second = net.send(2, 7, "ping")
        sim.run()
        # First: 10 out + 50 service + 10 back.  Second queues behind it:
        # served at t=110, back at 120.
        assert first.done and second.done
        assert sim.now == pytest.approx(120.0)

    def test_full_queue_sheds_with_busy_reply(self):
        sim, net = make_net(latency_ms=10.0, queue_capacity=1, service_time_ms=50.0)
        net.register(7, lambda msg: "pong")
        admitted = net.send(1, 7, "ping")
        shed = net.send(2, 7, "ping")  # arrives while the queue is full
        sim.run()
        assert admitted.result() == "pong"
        assert shed.failed
        assert isinstance(shed.exception(), PeerBusyError)
        assert net.stats.busy_shed == 1
        # Shed is not a timeout: the peer answered, with a refusal.
        assert net.stats.timeouts == 0
        assert "ping-busy" in net.stats.by_kind

    def test_busy_reply_consumes_retry_budget_not_timeout(self):
        sim, net = make_net(latency_ms=10.0, queue_capacity=1, service_time_ms=500.0)
        net.register(7, lambda msg: "pong")
        net.send(1, 7, "ping")  # occupy the only slot
        future = net.request(
            2, 7, "ping", policy=RetryPolicy(timeout_ms=100.0, max_retries=1)
        )
        with pytest.raises(PeerBusyError):
            sim.run_until_complete(future)
        assert net.stats.retries == 1
        assert net.stats.timeouts == 0

    def test_a_superseded_attempts_busy_reply_is_not_charged_to_its_retry(self):
        # Attempt 0's busy reply lands at 600, while its retry (sent at
        # 400 when attempt 0's patience ran out) is still in flight.
        # Charged to the retry, it launched a third attempt beside the
        # second and cut the request short at 1000:
        charged_to_the_retry = [
            "send0@0", "retry1@400", "send1@400", "busy1@600", "retry2@600",
            "send2@600", "busy2@1000", "busy-exhausted@1000",
        ]
        # Ignored, the retry's own busy reply decides at 1000:
        ignored = [
            "send0@0", "retry1@400", "send1@400", "busy1@1000", "retry2@1000",
            "send2@1000", "busy2@1600", "busy-exhausted@1600",
        ]
        sim = Simulator()
        net = AsyncNetwork(
            sim, ConstantLatency(300.0), queue_capacity=1, service_time_ms=5000.0,
            policy=RetryPolicy(400.0, 2, 2.0),
        )
        net.register(1, lambda msg: "pong")
        net.send(3, 1, "ping")  # fills peer 1's only slot
        timeline: list[str] = []

        def observe(name: str, attrs: dict) -> None:
            timeline.append(f"{name}{attrs.get('attempt', '')}@{sim.now:g}")

        future = net.request(2, 1, "ping", observer=observe)
        with pytest.raises(PeerBusyError):
            sim.run_until_complete(future)
        assert timeline == ignored != charged_to_the_retry
        assert (net.stats.retries, net.stats.timeouts) == (2, 0)

    def test_backlog_drains_and_is_introspectable(self):
        sim, net = make_net(latency_ms=10.0, queue_capacity=4, service_time_ms=50.0)
        net.register(7, lambda msg: "pong")
        for origin in (1, 2, 3):
            net.send(origin, 7, "ping")
        sim.run(until=15.0)
        assert net.queue_backlog(7) == 3
        sim.run()
        assert net.queue_backlog(7) == 0

    def test_zero_capacity_is_the_unqueued_model(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        futures = [net.send(i, 7, "ping") for i in range(1, 6)]
        sim.run()
        assert sim.now == pytest.approx(20.0)  # all served concurrently
        assert all(f.result() == "pong" for f in futures)
        assert net.stats.busy_shed == 0


class TestGreyFailures:
    def test_drop_probability_setter_validates(self):
        _sim, net = make_net()
        net.drop_probability = 0.25
        assert net.drop_probability == 0.25
        with pytest.raises(ValueError):
            net.drop_probability = 1.0
        with pytest.raises(ValueError):
            net.drop_probability = -0.1
        assert net.drop_probability == 0.25  # rejected writes don't stick

    def test_slow_factors_validate(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.slow(7, latency_factor=0.5)
        with pytest.raises(ValueError):
            faults.slow(7, service_factor=0.0)

    def test_slow_peer_inflates_both_legs(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.faults.slow(7, latency_factor=4.0)
        future = net.send(1, 7, "ping")
        sim.run_until_complete(future)
        assert sim.now == pytest.approx(80.0)  # 4 * (10 + 10)
        assert net.faults.is_slow(7)
        net.faults.unslow(7)
        assert net.faults.link_factor(1, 7) == 1.0

    def test_service_factor_inflates_queue_service(self):
        sim, net = make_net(latency_ms=10.0, queue_capacity=2, service_time_ms=50.0)
        net.register(7, lambda msg: "pong")
        net.faults.slow(7, service_factor=4.0)
        sim.run_until_complete(net.send(1, 7, "ping"))
        assert sim.now == pytest.approx(10.0 + 200.0 + 10.0)

    def test_scheduled_grey_failure_and_recovery(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        sim.call_at(5.0, lambda: net.faults.slow(7, latency_factor=10.0))
        sim.call_at(500.0, lambda: net.faults.unslow(7))
        slow = net.send(1, 7, "ping")  # sampled at t=0, before the slowdown
        sim.run(until=0.0)
        assert not slow.done
        sim.run(until=600.0)
        fast = net.send(1, 7, "ping")
        start = sim.now
        sim.run_until_complete(fast)
        assert sim.now - start == pytest.approx(20.0)

    def test_reply_to_crashed_requester_is_counted(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.register(1, lambda msg: None)
        future = net.send(1, 7, "ping")
        # The requester dies while the reply is on the wire.
        sim.call_later(15.0, lambda: net.crash(1))
        sim.run()
        assert not future.done
        assert net.stats.replies_to_dead == 1
        assert net.stats.drops == 0  # not a network drop: the peer is gone


class TestBreakerIntegration:
    def make_breaker_net(self, threshold: int = 2):
        sim, net = make_net(latency_ms=10.0)
        net.breaker = CircuitBreaker(
            clock=lambda: sim.now, failure_threshold=threshold, cooldown_ms=1_000.0
        )
        return sim, net

    def test_open_breaker_fails_fast_without_messages(self):
        sim, net = self.make_breaker_net(threshold=2)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        policy = RetryPolicy(timeout_ms=50.0, max_retries=0)
        for _ in range(2):
            with pytest.raises(RequestTimeoutError):
                sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        messages_before = net.stats.messages
        start = sim.now
        with pytest.raises(OpenCircuitError):
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        assert net.stats.messages == messages_before  # nothing hit the wire
        assert sim.now == start  # and no virtual time passed
        assert net.stats.timeouts == 2  # fast failures are not timeouts

    def test_breaker_refusal_emits_trace_event(self):
        sim, net = self.make_breaker_net(threshold=1)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        policy = RetryPolicy(timeout_ms=50.0, max_retries=0)
        with pytest.raises(RequestTimeoutError):
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        events: list[str] = []
        with pytest.raises(OpenCircuitError):
            sim.run_until_complete(
                net.request(
                    1, 7, "ping", policy=policy,
                    observer=lambda name, attrs: events.append(name),
                )
            )
        assert events == ["breaker-open"]

    def test_successful_probe_recloses_after_recovery(self):
        sim, net = self.make_breaker_net(threshold=1)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        policy = RetryPolicy(timeout_ms=50.0, max_retries=0)
        with pytest.raises(RequestTimeoutError):
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        net.recover(7)
        sim.run(until=sim.now + 2_000.0)  # past the cooldown
        assert sim.run_until_complete(net.request(1, 7, "ping", policy=policy)) == "pong"
        assert net.breaker.state(7) == "closed"


class TestAdaptiveRetryEdges:
    def test_backoff_one_keeps_timeouts_flat(self):
        policy = RetryPolicy(timeout_ms=100.0, max_retries=2, backoff=1.0)
        assert [policy.timeout_for(i) for i in range(3)] == [100.0, 100.0, 100.0]
        assert policy.worst_case_ms() == 300.0

    def test_zero_retries_is_a_single_attempt(self):
        policy = RetryPolicy(timeout_ms=250.0, max_retries=0)
        assert policy.total_attempts == 1
        assert policy.worst_case_ms() == 250.0
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        with pytest.raises(RequestTimeoutError) as excinfo:
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        assert excinfo.value.attempts == 1
        assert net.stats.retries == 0

    def test_warm_adaptive_estimator_shortens_the_wait(self):
        from repro.sim import AdaptiveTimeout

        sim, net = make_net(latency_ms=10.0)
        net.adaptive = AdaptiveTimeout(warmup=3, floor_ms=50.0)
        net.register(7, lambda msg: "pong")
        policy = RetryPolicy(timeout_ms=10_000.0, max_retries=0)
        for _ in range(3):
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        assert net.adaptive.samples(7) == 3
        assert net.adaptive.timeout_ms(7) == pytest.approx(50.0)  # rttvar -> 0
        # Now the peer dies: the warm estimator times out at its own
        # clamped floor, not the static policy's 10 s.
        net.crash(7)
        start = sim.now
        with pytest.raises(RequestTimeoutError):
            sim.run_until_complete(net.request(1, 7, "ping", policy=policy))
        assert sim.now - start == pytest.approx(50.0)


class TestFutureCancellationPaths:
    def test_cancel_releases_the_timeout_timer(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        future = net.request(
            1, 7, "ping", policy=RetryPolicy(timeout_ms=5_000.0, max_retries=0)
        )
        before = sim.pending  # the delivery timer plus the timeout timer
        assert future.cancel()
        assert sim.pending == before - 1  # the timeout timer died with it
        sim.run()
        assert sim.now < 5_000.0  # and never fired

    def test_cancel_after_resolve_is_a_noop(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        future = net.request(1, 7, "ping")
        sim.run_until_complete(future)
        assert not future.cancel()
        assert future.result() == "pong"

    def test_late_reply_to_cancelled_request_is_silent(self):
        sim, net = make_net(latency_ms=10.0)
        net.register(7, lambda msg: "pong")
        future = net.request(1, 7, "ping")
        future.cancel()
        sim.run()  # the reply still arrives; settling must not raise
        assert future.cancelled
        assert not future.failed or future.cancelled


class TestConfigValidation:
    def test_queue_needs_service_rate(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, peer_queue=4)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, peer_queue=-1)
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, service_rate=-1.0)
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, quorum=-1)
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, quorum=6)  # > l = 5
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, quorum_threshold=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=10, quorum_threshold=1.5)


def make_engine(seed: int = 7, n_peers: int = 60, **config_kwargs) -> AsyncQueryEngine:
    config = SystemConfig(n_peers=n_peers, seed=seed, **config_kwargs)
    system = RangeSelectionSystem(config)
    return AsyncQueryEngine(
        system,
        latency=SeededLatency(10.0, 100.0, seed=seed),
        policy=RetryPolicy(timeout_ms=400.0, max_retries=1),
        seed=seed,
    )


class TestEngineProtections:
    def test_passivity_defaults_leave_protections_unbuilt(self):
        engine = make_engine()
        assert engine.net.queue_capacity == 0
        assert engine.net.adaptive is None
        assert engine.net.backoff is None
        assert engine.net.breaker is None
        assert engine.hedge is None
        assert engine.quorum_m == 0

    def test_protections_off_results_are_unchanged(self):
        """The gated code paths must not perturb a default run."""
        queries = [IntRange(100, 200), IntRange(100, 199), IntRange(300, 420)]
        plain = [
            (r.total_ms, r.matched, r.partial)
            for r in (make_engine(seed=5).run(q) for q in queries)
        ]
        again = [
            (r.total_ms, r.matched, r.partial)
            for r in (make_engine(seed=5).run(q) for q in queries)
        ]
        assert plain == again
        assert all(not partial for _, _, partial in plain)

    def test_hedged_lookup_beats_a_slow_owner(self):
        engine = make_engine(
            seed=7, replicas=3, peer_queue=8, service_rate=100.0, hedge=True
        )
        engine.run(IntRange(100, 200))  # populate (replicated)
        probe = engine.run(IntRange(100, 199))
        assert probe.found
        # Warm the hedge trigger on healthy chains.
        for _ in range(5):
            engine.run(IntRange(100, 199))
        assert engine.hedge.warm
        # Grey-slow every owner: the hedge to a replica should win.
        for chain in probe.chains:
            engine.slow_peer(chain.owner, latency_factor=20.0, service_factor=20.0)
        result = engine.run(IntRange(100, 199))
        assert result.found
        assert engine.net.stats.hedges > 0
        assert engine.net.stats.hedge_wins > 0
        assert any(chain.hedged for chain in result.chains)

    def test_quorum_completes_early_and_flags_partial(self):
        engine = make_engine(
            seed=7, replicas=3, quorum=3, quorum_threshold=0.9
        )
        engine.run(IntRange(100, 200))
        result = engine.run(IntRange(100, 199))
        assert result.found
        assert result.partial
        assert result.degraded  # partial is a degraded answer
        assert len([c for c in result.chains if c.reply is not None]) >= 3

    def test_quorum_never_fires_below_threshold(self):
        engine = make_engine(seed=7, quorum=1, quorum_threshold=1.0)
        result = engine.run(IntRange(100, 200))  # a miss: no match anywhere
        assert not result.partial

    def test_run_open_loop_preserves_issue_order(self):
        engine = make_engine(seed=9)
        queries = [IntRange(100 + i, 200 + i) for i in range(6)]
        results = engine.run_open_loop(queries, interval_ms=50.0)
        assert len(results) == 6
        assert [r.query for r in results] == queries
        with pytest.raises(ValueError):
            engine.run_open_loop(queries, interval_ms=-1.0)
        assert engine.run_open_loop([], interval_ms=10.0) == []

    def test_run_open_loop_is_deterministic(self):
        queries = [IntRange(100, 200), IntRange(100, 199), IntRange(50, 80)]

        def totals() -> list[float]:
            engine = make_engine(seed=9)
            return [r.total_ms for r in engine.run_open_loop(queries, 25.0)]

        assert totals() == totals()
