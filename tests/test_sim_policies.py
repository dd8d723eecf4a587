"""Tests for the adaptive request policies (timeouts, backoff, breaker)."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.policies import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdaptiveTimeout,
    CircuitBreaker,
    HedgePolicy,
    JitteredBackoff,
)


class TestAdaptiveTimeout:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTimeout(k=0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(alpha=1.0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(beta=0.0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(floor_ms=100.0, ceiling_ms=50.0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(warmup=0)
        with pytest.raises(ValueError):
            AdaptiveTimeout().observe(7, -1.0)

    def test_cold_estimator_defers_to_static_policy(self):
        adaptive = AdaptiveTimeout(warmup=3)
        assert adaptive.timeout_ms(7) is None
        adaptive.observe(7, 100.0)
        adaptive.observe(7, 100.0)
        assert adaptive.samples(7) == 2
        assert adaptive.timeout_ms(7) is None  # still one sample short
        adaptive.observe(7, 100.0)
        assert adaptive.timeout_ms(7) is not None

    def test_first_sample_seeds_jacobson_state(self):
        adaptive = AdaptiveTimeout(warmup=1)
        adaptive.observe(7, 100.0)
        assert adaptive.srtt_ms(7) == pytest.approx(100.0)
        # srtt + k * rttvar = 100 + 4 * 50
        assert adaptive.timeout_ms(7) == pytest.approx(300.0)

    def test_ewma_update_matches_jacobson(self):
        adaptive = AdaptiveTimeout(warmup=1, alpha=0.125, beta=0.25, k=4.0)
        adaptive.observe(7, 100.0)
        adaptive.observe(7, 200.0)
        # rttvar <- 0.75*50 + 0.25*|100-200| = 62.5, srtt <- 0.875*100 + 0.125*200
        assert adaptive.srtt_ms(7) == pytest.approx(112.5)
        assert adaptive.timeout_ms(7) == pytest.approx(112.5 + 4 * 62.5)

    def test_timeout_is_clamped(self):
        adaptive = AdaptiveTimeout(warmup=1, floor_ms=50.0, ceiling_ms=500.0)
        adaptive.observe(1, 1.0)
        assert adaptive.timeout_ms(1) == 50.0
        adaptive.observe(2, 10_000.0)
        assert adaptive.timeout_ms(2) == 500.0

    def test_estimates_are_per_destination(self):
        adaptive = AdaptiveTimeout(warmup=1)
        adaptive.observe(1, 10.0)
        adaptive.observe(2, 1_000.0)
        assert adaptive.timeout_ms(1) < adaptive.timeout_ms(2)

    def test_forget_is_idempotent_and_resets_warmup(self):
        adaptive = AdaptiveTimeout(warmup=1)
        adaptive.observe(7, 100.0)
        adaptive.forget(7)
        adaptive.forget(7)
        assert adaptive.samples(7) == 0
        assert adaptive.timeout_ms(7) is None


class TestJitteredBackoff:
    def test_validation(self):
        with pytest.raises(ValueError):
            JitteredBackoff(base_ms=0)
        with pytest.raises(ValueError):
            JitteredBackoff(factor=0.5)
        with pytest.raises(ValueError):
            JitteredBackoff(jitter=1.0)
        with pytest.raises(ValueError):
            JitteredBackoff(base_ms=100.0, cap_ms=50.0)
        with pytest.raises(ValueError):
            JitteredBackoff().delay_ms(-1)

    def test_no_jitter_is_exact_exponential(self):
        backoff = JitteredBackoff(base_ms=50.0, factor=2.0, jitter=0.0, cap_ms=150.0)
        assert [backoff.delay_ms(i) for i in range(4)] == [50.0, 100.0, 150.0, 150.0]

    def test_jitter_stays_within_band(self):
        backoff = JitteredBackoff(base_ms=100.0, factor=1.0, jitter=0.5, seed=3)
        for _ in range(50):
            delay = backoff.delay_ms(0)
            assert 50.0 <= delay <= 100.0

    def test_same_seed_replays_exactly(self):
        a = JitteredBackoff(seed=11, name="test/backoff")
        b = JitteredBackoff(seed=11, name="test/backoff")
        assert [a.delay_ms(i) for i in range(5)] == [b.delay_ms(i) for i in range(5)]

    def test_distinct_names_desynchronize(self):
        a = JitteredBackoff(seed=11, name="test/peer-1")
        b = JitteredBackoff(seed=11, name="test/peer-2")
        assert [a.delay_ms(0) for _ in range(4)] != [b.delay_ms(0) for _ in range(4)]


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_breaker(**kwargs) -> tuple[ManualClock, CircuitBreaker, MetricsRegistry]:
    clock = ManualClock()
    registry = MetricsRegistry()
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("cooldown_ms", 1_000.0)
    breaker = CircuitBreaker(clock, registry=registry, **kwargs)
    return clock, breaker, registry


class TestCircuitBreaker:
    def test_validation(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, cooldown_ms=0)

    def test_closed_admits_and_successes_keep_it_closed(self):
        _clock, breaker, _ = make_breaker()
        assert breaker.state(7) == CLOSED
        for _ in range(10):
            assert breaker.allow(7)
            breaker.record_success(7)
        assert breaker.state(7) == CLOSED
        assert breaker.open_peers() == frozenset()

    def test_opens_after_consecutive_failures_only(self):
        _clock, breaker, registry = make_breaker(failure_threshold=3)
        breaker.record_failure(7)
        breaker.record_failure(7)
        breaker.record_success(7)  # resets the consecutive count
        breaker.record_failure(7)
        breaker.record_failure(7)
        assert breaker.state(7) == CLOSED
        breaker.record_failure(7)
        assert breaker.state(7) == OPEN
        assert registry.counter("sim.breaker.opened").get() == 1
        assert breaker.open_peers() == frozenset({7})

    def test_open_refuses_and_counts_fast_failures(self):
        clock, breaker, registry = make_breaker(failure_threshold=1)
        breaker.record_failure(7)
        clock.now = 10.0  # well inside the cooldown
        assert not breaker.allow(7)
        assert not breaker.allow(7)
        assert registry.counter("sim.breaker.fast_failures").get() == 2

    def test_half_open_admits_exactly_one_probe(self):
        clock, breaker, registry = make_breaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(7)
        clock.now = 100.0
        assert breaker.allow(7)  # the probe
        assert breaker.state(7) == HALF_OPEN
        assert not breaker.allow(7)  # everyone else waits on the probe
        assert registry.counter("sim.breaker.probes").get() == 1

    def test_probe_success_recloses(self):
        clock, breaker, registry = make_breaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(7)
        clock.now = 150.0
        assert breaker.allow(7)
        breaker.record_success(7)
        assert breaker.state(7) == CLOSED
        assert breaker.allow(7)
        assert registry.counter("sim.breaker.reclosed").get() == 1
        assert registry.gauge("sim.breaker.open_now").get() == 0

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock, breaker, registry = make_breaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(7)
        clock.now = 100.0
        assert breaker.allow(7)
        breaker.record_failure(7)  # the probe came back dead
        assert breaker.state(7) == OPEN
        assert registry.counter("sim.breaker.opened").get() == 2
        clock.now = 150.0  # cooldown restarted at t=100
        assert not breaker.allow(7)
        clock.now = 200.0
        assert breaker.allow(7)

    def test_stragglers_while_open_do_not_restart_cooldown(self):
        clock, breaker, _ = make_breaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(7)
        clock.now = 90.0
        breaker.record_failure(7)  # late timeout from before the trip
        clock.now = 100.0
        assert breaker.allow(7)  # original cooldown still governs

    def test_transition_hook_sees_every_change(self):
        clock, breaker, _ = make_breaker(failure_threshold=1, cooldown_ms=100.0)
        seen: list[tuple[int, str, str]] = []
        breaker.transition_hook = lambda *args: seen.append(args)
        breaker.record_failure(7)
        clock.now = 100.0
        breaker.allow(7)
        breaker.record_success(7)
        assert seen == [
            (7, CLOSED, OPEN),
            (7, OPEN, HALF_OPEN),
            (7, HALF_OPEN, CLOSED),
        ]

    def test_reset_forgets_peer_and_gauge(self):
        _clock, breaker, registry = make_breaker(failure_threshold=1)
        breaker.record_failure(7)
        assert registry.gauge("sim.breaker.open_now").get() == 1
        breaker.reset(7)
        assert breaker.state(7) == CLOSED
        assert breaker.allow(7)
        assert registry.gauge("sim.breaker.open_now").get() == 0


class TestHistogramPercentile:
    """The hedge trigger's tail read: ``HistogramMetric.quantile``."""

    def test_validation_and_empty_series(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t.h")
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert hist.quantile(0.95) == 0.0

    def test_returns_bucket_upper_edge(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t.h")
        for _ in range(99):
            hist.observe(3.0)  # bucket (2, 5]
        hist.observe(400.0)  # bucket (200, 500]
        assert hist.quantile(0.5) == 5.0
        assert hist.quantile(1.0) == 500.0
        hist.observe(1.0, peer=7)
        assert hist.quantile(1.0, peer=7) == 1.0

    def test_samples_past_last_edge_read_the_last_edge(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t.h")
        hist.observe(1e9)
        assert hist.quantile(0.99) == hist.edges[-1] == 50_000.0


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(percentile=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_samples=0)
        with pytest.raises(ValueError):
            HedgePolicy(floor_ms=10.0, ceiling_ms=5.0)

    def test_cold_policy_never_hedges(self):
        policy = HedgePolicy(min_samples=5)
        for _ in range(4):
            policy.observe(100.0)
        assert not policy.warm
        assert policy.delay_ms() is None

    def test_warm_policy_yields_clamped_tail(self):
        policy = HedgePolicy(min_samples=5, floor_ms=150.0, ceiling_ms=400.0)
        for _ in range(5):
            policy.observe(80.0)  # p95 bucket edge 100 < floor
        assert policy.warm
        assert policy.delay_ms() == 150.0
        for _ in range(200):
            policy.observe(900.0)  # p95 edge 1000 > ceiling
        assert policy.delay_ms() == 400.0

    def test_publishes_to_shared_registry(self):
        registry = MetricsRegistry()
        policy = HedgePolicy(registry=registry)
        policy.observe(42.0)
        assert registry.histogram("sim.query.chain_ms").count() == 1
