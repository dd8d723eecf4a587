"""Tests for the simulated network transport."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    PeerUnavailableError,
    RequestTimeoutError,
    UnknownPeerError,
)
from repro.net import (
    ConstantLatency,
    LatencyModel,
    Message,
    PeerNetwork,
    SeededLatency,
    SimulatedNetwork,
    Transport,
)
from repro.sim import AsyncNetwork, RetryPolicy, Simulator


class TestMessage:
    def test_sequence_numbers_increase(self):
        a = Message(1, 2, "x")
        b = Message(1, 2, "x")
        assert b.seq > a.seq

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(1, 2, "x", size_bytes=-1)


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(5.0).sample_ms(1, 2) == 5.0
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_seeded_is_pairwise_deterministic(self):
        a = SeededLatency(10, 100, seed=4)
        b = SeededLatency(10, 100, seed=4)
        # Same pair, same delay — regardless of how many samples were
        # drawn in between (no generator state).
        first = a.sample_ms(1, 2)
        for _ in range(5):
            a.sample_ms(3, 4)
        assert a.sample_ms(1, 2) == first
        assert b.sample_ms(1, 2) == first

    def test_seeded_stays_in_bounds_and_varies(self):
        model = SeededLatency(10, 100, seed=0)
        samples = {model.sample_ms(i, i + 1) for i in range(30)}
        assert all(10 <= s <= 100 for s in samples)
        assert len(samples) > 1

    def test_seeded_links_are_asymmetric(self):
        model = SeededLatency(10, 100, seed=0)
        assert model.sample_ms(1, 2) != model.sample_ms(2, 1)

    def test_seeded_validates_bounds(self):
        with pytest.raises(ValueError):
            SeededLatency(20, 10)

    def test_seeded_memo_is_capped_and_changes_no_sample(self):
        def digest_delay(seed: int, sender: int, recipient: int) -> float:
            digest = hashlib.sha256(f"{seed}:{sender}->{recipient}".encode()).digest()
            return 10 + int.from_bytes(digest[:8], "big") / 2**64 * 90

        model = SeededLatency(10, 100, seed=5)
        cap = SeededLatency.CACHE_LIMIT
        links = [(i, i * 7 + 1) for i in range(3 * cap)]
        first = {}
        for link in links:
            first[link] = model.sample_ms(*link)
            assert len(model._cache) <= cap
        # Evicted and re-memoised links read the same delay, and every
        # delay is the uncached digest's.
        for link in links[:: cap // 64]:
            assert model.sample_ms(*link) == first[link] == digest_delay(5, *link)
        assert len(model._cache) <= cap


class TestSeededLatencyBits:
    """The delay of a link is pinned to one formula, written out here: a
    faster hashing path must produce the same floats, memoised or not."""

    @staticmethod
    def formula(low: float, high: float, seed: int, sender: int, recipient: int) -> float:
        digest = hashlib.sha256(f"{seed}:{sender}->{recipient}".encode("ascii")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return low + fraction * (high - low)

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.tuples(
            st.floats(0, 1e4, allow_nan=False), st.floats(0, 1e4, allow_nan=False)
        ).map(sorted),
        seed=st.integers(-(2**64), 2**64),
        links=st.lists(
            st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)),
            min_size=1, max_size=8,
        ),
    )
    def test_sample_is_the_formula_on_misses_and_hits(self, bounds, seed, links):
        low, high = bounds
        model = SeededLatency(low, high, seed=seed)
        for _ in range(2):  # the first pass misses the memo, the second hits
            for sender, recipient in links:
                assert model.sample_ms(sender, recipient) == self.formula(
                    low, high, seed, sender, recipient
                )


class TestPathLatency:
    """``path_ms`` is ``sample_ms`` edge by edge, in one call per route:
    the same floats, and the same memo, cold or warm."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(2**64), 2**64),
        path=st.lists(st.integers(0, 2**64), max_size=10),
        warm=st.lists(st.tuples(st.integers(0, 2**64), st.integers(0, 2**64)), max_size=4),
    )
    def test_path_is_each_edge_sampled(self, seed, path, warm):
        by_path = SeededLatency(10, 100, seed=seed)
        by_edge = SeededLatency(10, 100, seed=seed)
        for link in warm:
            by_path.sample_ms(*link)
            by_edge.sample_ms(*link)
        for _ in range(2):  # cold memo, then warm
            edges = [by_edge.sample_ms(a, b) for a, b in zip(path, path[1:])]
            assert by_path.path_ms(path) == edges
            assert by_path._cache == by_edge._cache
        constant = ConstantLatency(2.5)
        assert constant.path_ms(path) == [
            constant.sample_ms(a, b) for a, b in zip(path, path[1:])
        ]

    def test_memo_cap_is_kept_along_a_path(self):
        model = SeededLatency(10, 100, seed=3)
        reference = SeededLatency(10, 100, seed=3)
        path = list(range(SeededLatency.CACHE_LIMIT + 50))
        assert model.path_ms(path) == [
            reference.sample_ms(a, b) for a, b in zip(path, path[1:])
        ]
        assert model._cache == reference._cache
        assert len(model._cache) <= SeededLatency.CACHE_LIMIT

    def test_base_path_draws_in_edge_order(self):
        class Drawn(LatencyModel):
            """Each sample is the number of draws so far."""

            def __init__(self):
                self.edges = []

            def sample_ms(self, sender, recipient):
                self.edges.append((sender, recipient))
                return float(len(self.edges))

        model = Drawn()
        assert model.path_ms([5, 1, 9, 2]) == [1.0, 2.0, 3.0]
        assert model.edges == [(5, 1), (1, 9), (9, 2)]


class TestSimulatedNetwork:
    def test_delivery_and_reply(self):
        net = SimulatedNetwork()
        net.register(7, lambda msg: ("echo", msg.payload))
        assert net.send(1, 7, "ping", payload=42) == ("echo", 42)

    def test_unknown_recipient_raises(self):
        with pytest.raises(UnknownPeerError):
            SimulatedNetwork().send(1, 99, "ping")

    def test_unregister(self):
        net = SimulatedNetwork()
        net.register(7, lambda msg: None)
        assert net.is_registered(7)
        net.unregister(7)
        assert not net.is_registered(7)
        with pytest.raises(UnknownPeerError):
            net.send(1, 7, "ping")

    def test_traffic_accounting(self):
        net = SimulatedNetwork(latency=ConstantLatency(2.0))
        net.register(7, lambda msg: None)
        net.register(8, lambda msg: None)
        net.send(1, 7, "a", size_bytes=100)
        net.send(1, 8, "a", size_bytes=50)
        net.send(7, 8, "b", size_bytes=10)
        stats = net.stats
        assert stats.messages == 3
        assert stats.bytes == 160
        assert stats.latency_ms == pytest.approx(6.0)
        assert stats.by_kind == {"a": 2, "b": 1}
        assert stats.sent_by_peer[1] == 2
        assert stats.received_by_peer[8] == 2

    def test_the_clock_survives_a_stats_reset(self):
        # now() is wire time folded delivery by delivery; zeroing the
        # counters after a warm-up must not send it back to 0.
        net = SimulatedNetwork(latency=ConstantLatency(2.0))
        net.register(7, lambda msg: None)
        net.send(1, 7, "a")
        net.travel((1, 5, 9, 7), lambda delays: None)
        assert net.now() == 8.0
        net.stats.reset()
        assert net.stats.latency_ms == 0.0 and net.now() == 8.0
        net.send(1, 7, "a")
        assert net.stats.latency_ms == 2.0 and net.now() == 10.0

    def test_stats_reset(self):
        net = SimulatedNetwork()
        net.register(7, lambda msg: None)
        net.send(1, 7, "a")
        net.stats.reset()
        assert net.stats.messages == 0
        assert net.stats.by_kind == {}

    def test_peer_count(self):
        net = SimulatedNetwork()
        net.register(1, lambda m: None)
        net.register(2, lambda m: None)
        assert net.peer_count == 2

    def test_routing_hops_accrue_latency(self):
        stats = SimulatedNetwork().stats
        stats.record_routing_hops(3, latency_ms=12.0)
        assert stats.messages == 3
        assert stats.latency_ms == pytest.approx(12.0)
        with pytest.raises(ValueError):
            stats.record_routing_hops(1, latency_ms=-1.0)

    def test_charge_route_samples_every_edge(self):
        net = SimulatedNetwork(latency=ConstantLatency(4.0))
        total = net.charge_route((1, 5, 9, 2))
        assert total == pytest.approx(12.0)  # three edges
        assert net.stats.messages == 3
        assert net.stats.latency_ms == pytest.approx(12.0)
        assert net.stats.by_kind == {"route-hop": 3}

    def test_charge_route_of_trivial_path(self):
        net = SimulatedNetwork(latency=ConstantLatency(4.0))
        assert net.charge_route((7,)) == 0.0
        assert net.stats.messages == 0


# -- one peer directory under both in-process networks ----------------------

NETWORKS = {
    "sync": lambda: SimulatedNetwork(latency=SeededLatency(seed=3)),
    "sim": lambda: AsyncNetwork(Simulator(), latency=SeededLatency(seed=3)),
}


@pytest.fixture(params=sorted(NETWORKS))
def make(request):
    return NETWORKS[request.param]


def settle(net: PeerNetwork) -> None:
    """Let everything in flight land (the sync network has nothing to run)."""
    if isinstance(net, AsyncNetwork):
        net.sim.run()


def traffic(net: PeerNetwork) -> tuple:
    stats = net.stats
    return (stats.messages, stats.bytes, stats.latency_ms, dict(stats.by_kind))


class TestPeerNetworkContract:
    def test_both_are_the_engines_transport(self, make):
        net = make()
        assert isinstance(net, PeerNetwork) and isinstance(net, Transport)

    def test_directory(self, make):
        net = make()
        assert net.peer_count == 0
        assert not net.is_registered(7) and not net.is_alive(7)
        net.register(7, lambda msg: None)
        net.register(8, lambda msg: None)
        assert net.peer_count == 2
        assert net.is_registered(7) and net.is_alive(7)
        net.unregister(7)
        net.unregister(7)  # idempotent
        assert net.peer_count == 1
        assert not net.is_registered(7) and not net.is_alive(7)

    def test_crash_and_recover(self, make):
        net = make()
        net.register(7, lambda msg: None)
        net.crash(7)
        assert net.is_registered(7) and not net.is_alive(7)
        assert net.peer_count == 1
        net.recover(7)
        net.recover(7)  # idempotent
        assert net.is_alive(7)

    def test_a_departed_peer_takes_its_crash_flag_with_it(self, make):
        net = make()
        net.register(7, lambda msg: None)
        net.crash(7)
        net.unregister(7)
        net.register(7, lambda msg: None)
        assert net.is_alive(7)

    def test_liveness_epoch_moves_with_every_change_and_only_then(self, make):
        net = make()
        epochs = [net.liveness_epoch]
        for change in (
            lambda: net.register(7, lambda msg: None),
            lambda: net.crash(7),
            lambda: net.recover(7),
            lambda: net.crash(7),
            lambda: net.unregister(7),
        ):
            change()
            epochs.append(net.liveness_epoch)
        assert epochs == sorted(set(epochs))
        net.is_alive(7)
        net.charge_route((1, 2))
        assert net.liveness_epoch == epochs[-1]

    def test_charge_route_samples_every_edge(self, make):
        net, model = make(), SeededLatency(seed=3)
        edges = [(1, 5), (5, 9), (9, 2)]
        expected = sum(model.sample_ms(a, b) for a, b in edges)
        assert net.charge_route((1, 5, 9, 2)) == pytest.approx(expected)
        assert traffic(net) == (3, 96, pytest.approx(expected), {"route-hop": 3})
        assert net.charge_route((7,)) == 0.0
        assert net.stats.messages == 3

    def test_hop_charges_exactly_what_charge_route_does(self, make):
        net, twin = make(), make()
        landed: list[float] = []
        net.hop(1, 5, landed.append)
        settle(net)
        assert landed == [twin.charge_route((1, 5))]
        assert traffic(net) == traffic(twin)
        assert net.now() == landed[0]  # the hop took its own delay

    def test_travel_charges_exactly_what_charge_route_does(self, make):
        net, twin = make(), make()
        path = (1, 5, 9, 2)
        landed: list = []
        net.travel(path, landed.append)
        settle(net)
        total = twin.charge_route(path)
        messages, size, latency_ms, kinds = traffic(net)
        # The same edges, summed in a different grouping.
        assert (messages, size, kinds) == (3, 96, {"route-hop": 3})
        assert traffic(twin) == (messages, size, pytest.approx(latency_ms), kinds)
        assert len(landed) == 1 and len(landed[0]) == len(path) - 1
        assert sum(landed[0]) == pytest.approx(total)

    def test_travel_lands_once_at_the_folded_arrival(self, make):
        net, model = make(), SeededLatency(seed=3)
        path = (1, 5, 9, 2, 4, 8, 6, 3)
        delays = [model.sample_ms(a, b) for a, b in zip(path, path[1:])]
        arrival = 0.0
        for delay in delays:
            arrival += delay
        landings: list = []
        net.travel(path, lambda landed: landings.append((net.now(), list(landed))))
        if isinstance(net, AsyncNetwork):
            # Nothing lands before the route's last edge does: one kernel
            # event, whatever the route's length.
            assert landings == [] and net.sim.pending == 1
            assert net.sim.step() and not net.sim.step()
        else:
            assert len(landings) == 1  # immediately, before travel returns
        # Bit-identical to a hop-by-hop walk: departure plus each delay.
        assert landings == [(arrival, delays)]

    def test_travel_delivers_its_last_edge_as_one_hop(self, make, monkeypatch):
        net, twin = make(), make()
        hops: list = []
        hop = net.hop
        monkeypatch.setattr(
            net, "hop", lambda a, b, fn: hops.append((a, b)) or hop(a, b, fn)
        )
        landed: list = []
        net.travel((2, 4), landed.append)
        net.travel((1, 5, 9, 2), landed.append)
        settle(net)
        twin.hop(2, 4, lambda delay: landed.append([delay]))
        settle(twin)
        # Clockless, the edge into the owner is a hop; on the clock the
        # whole route is one event and no hop.  Either way a one-edge
        # route lands as its hop would.
        clockless = not isinstance(net, AsyncNetwork)
        assert hops == ([(2, 4), (9, 2)] if clockless else [])
        assert len(landed) == 3 and landed[0] == landed[2]

    def test_travel_of_one_node_lands_at_once_and_charges_nothing(self, make):
        net = make()
        landed: list = []
        net.travel((7,), landed.append)
        assert landed == [[]]
        assert traffic(net) == (0, 0, 0, {})
        assert net.now() == 0.0

    def test_request_to_an_unknown_peer_rejects(self, make):
        net = make()
        future = net.request(1, 99, "ping")
        settle(net)
        assert isinstance(future.exception(), UnknownPeerError)
        assert net.stats.messages == 0

    def test_request_to_a_crashed_peer_rejects(self, make):
        net = make()
        net.register(7, lambda msg: "pong")
        net.crash(7)
        future = net.request(1, 7, "ping")
        settle(net)
        # Loud at once without a clock, a timed-out budget with one.
        assert isinstance(
            future.exception(), (PeerUnavailableError, RequestTimeoutError)
        )
        net.recover(7)
        future = net.request(1, 7, "ping")
        settle(net)
        assert future.result() == "pong"


class TestAsyncNetworkRequestBudget:
    """Which retry schedule an ``AsyncNetwork.request`` runs under."""

    @staticmethod
    def attempts(net: AsyncNetwork, **options) -> int:
        future = net.request(1, 7, "ping", **options)
        net.sim.run()
        return future.exception().attempts

    def make_net(self, **policies) -> AsyncNetwork:
        net = AsyncNetwork(Simulator(), latency=ConstantLatency(5.0), **policies)
        net.register(7, lambda msg: "pong")
        net.crash(7)
        return net

    def test_rank_picks_the_budget(self):
        net = self.make_net(policy=RetryPolicy(timeout_ms=50.0, max_retries=2))
        assert self.attempts(net) == 3
        assert self.attempts(net, rank=0) == 3
        # Replicas get one try under the owner's base timeout.
        assert net.failover_policy == RetryPolicy(50.0, max_retries=0, backoff=1.0)
        assert self.attempts(net, rank=1) == 1
        assert self.attempts(net, rank=2) == 1

    def test_a_given_failover_policy_is_kept(self):
        net = self.make_net(failover_policy=RetryPolicy(20.0, max_retries=1))
        assert net.policy == RetryPolicy()
        assert self.attempts(net, rank=1) == 2

    def test_an_explicit_policy_wins_at_any_rank(self):
        net = self.make_net()
        explicit = RetryPolicy(timeout_ms=10.0, max_retries=4, backoff=1.0)
        assert self.attempts(net, policy=explicit) == 5
        assert self.attempts(net, rank=1, policy=explicit) == 5
