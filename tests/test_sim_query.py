"""Tests for the event-driven query path."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import DuplicateNodeError
from repro.net.latency import ConstantLatency, SeededLatency
from repro.obs import RingAuditor, TelemetrySampler
from repro.ranges.interval import IntRange
from repro.sim import AsyncQueryEngine, RetryPolicy


def make_engine(n_peers: int = 60, seed: int = 7, **kwargs) -> AsyncQueryEngine:
    system = RangeSelectionSystem(SystemConfig(n_peers=n_peers, seed=seed))
    kwargs.setdefault("latency", SeededLatency(10.0, 100.0, seed=seed))
    return AsyncQueryEngine(system, seed=seed, **kwargs)


class TestQuerySemantics:
    def test_matches_agree_with_synchronous_path(self):
        """Fault-free async queries find the same partitions as sync ones."""
        seed = 11
        sync_system = RangeSelectionSystem(SystemConfig(n_peers=60, seed=seed))
        engine = make_engine(n_peers=60, seed=seed)
        queries = [IntRange(30, 50), IntRange(30, 49), IntRange(200, 420), IntRange(210, 400)]
        for query in queries:
            sync_result = sync_system.query(query, origin=sync_system.router.node_ids[0])
            async_result = engine.run(query, origin=engine.system.router.node_ids[0])
            assert async_result.matched == sync_result.matched
            assert async_result.similarity == pytest.approx(sync_result.similarity)
            assert async_result.exact == sync_result.exact

    def test_store_on_miss_places_partitions(self):
        engine = make_engine()
        cold = engine.run(IntRange(100, 200))
        assert cold.matched is None and cold.stored
        assert engine.system.total_placements() > 0
        warm = engine.run(IntRange(100, 199))
        assert warm.found
        assert warm.recall > 0.9

    def test_phase_timings_partition_the_total(self):
        engine = make_engine()
        engine.run(IntRange(100, 200))
        result = engine.run(IntRange(100, 199))
        assert result.route_ms > 0
        assert result.match_ms > 0
        assert result.locate_ms == pytest.approx(result.route_ms + result.match_ms)
        assert result.total_ms == pytest.approx(
            result.locate_ms + result.fetch_ms + result.store_ms
        )

    def test_seeded_runs_are_identical(self):
        results_a = [
            (r.total_ms, r.matched)
            for r in (make_engine(seed=5).run(q) for q in [IntRange(10, 90), IntRange(12, 88)])
        ]
        results_b = [
            (r.total_ms, r.matched)
            for r in (make_engine(seed=5).run(q) for q in [IntRange(10, 90), IntRange(12, 88)])
        ]
        assert results_a == results_b

    def test_fetch_rows_round_trip(self):
        engine = make_engine(fetch_rows=True)
        engine.run(IntRange(100, 200))
        result = engine.run(IntRange(100, 199))
        assert result.found
        # Simulation-mode partitions are placeholders (None); the fetch
        # phase still costs a round trip.
        assert result.fetch_ms > 0


class TestAcceptance:
    """The ISSUE's acceptance scenario, verbatim: a 1,000-peer ring."""

    @pytest.fixture(scope="class")
    def engine(self) -> AsyncQueryEngine:
        system = RangeSelectionSystem(SystemConfig(n_peers=1000, seed=2003))
        return AsyncQueryEngine(
            system,
            latency=SeededLatency(10.0, 100.0, seed=2003),
            policy=RetryPolicy(timeout_ms=400.0, max_retries=1),
            seed=2003,
        )

    def test_completion_is_max_not_sum_of_chains(self, engine):
        engine.run(IntRange(300, 500))  # populate
        result = engine.run(IntRange(300, 499))
        chain_times = [chain.completed_ms for chain in result.chains]
        assert len(chain_times) == engine.system.config.l
        assert result.locate_ms == max(chain_times)
        assert result.locate_ms < 0.5 * sum(chain_times)

    def test_crashed_owner_degrades_not_fails(self, engine):
        engine.run(IntRange(600, 800))  # populate
        probe = engine.run(IntRange(600, 799))
        assert probe.found and not probe.degraded
        victim = probe.chains[0].owner
        engine.system.crash_peer(victim)
        timeouts_before = engine.net.stats.timeouts
        result = engine.run(IntRange(600, 799))
        # Still answered, from the surviving l-1 (or fewer) replies...
        assert result.found
        assert result.recall > 0
        surviving = [c for c in result.chains if not c.timed_out]
        assert all(c.owner != victim for c in surviving)
        # ...while the dead owner's chains are reported as timeouts.
        assert result.timeouts >= 1
        assert result.degraded
        assert engine.net.stats.timeouts > timeouts_before
        engine.system.recover_peer(victim)

    def test_crashed_peer_never_originates(self, engine):
        victim = engine.system.router.node_ids[0]
        engine.system.crash_peer(victim)
        for _ in range(20):
            assert engine.pick_origin() != victim
        engine.system.recover_peer(victim)


class TestOneCrashedSet:
    def test_a_system_crash_is_what_every_in_process_view_sees(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=40, seed=5))
        engine = AsyncQueryEngine(system, seed=5)
        assert engine.net.faults is system.network.faults
        victim = system.router.node_ids[4]
        system.crash_peer(victim)
        assert not engine.net.is_alive(victim)
        assert all(engine.pick_origin() != victim for _ in range(200))
        sampler = TelemetrySampler(system, sim=engine.sim)
        sampler.sample_once()
        assert system.metrics.timeseries("health.crashed").last()[1] == 1
        assert RingAuditor(system).audit().crashed_peers == 1
        system.recover_peer(victim)
        assert engine.net.is_alive(victim)


class TestDeterministicTiming:
    def test_constant_latency_gives_exact_round_trips(self):
        """With unit latency, chain time = hops + request round trip."""
        engine = make_engine(latency=ConstantLatency(1.0))
        result = engine.run(IntRange(100, 200))
        for chain in result.chains:
            assert chain.route_ms == pytest.approx(chain.hops * 1.0)
            assert chain.completed_ms == pytest.approx(chain.route_ms + 2.0)


# ----------------------------------------------------------------------
# pick_origin: the memoised alive list against the per-call scan
# ----------------------------------------------------------------------


def oracle_pick_origin(engine: AsyncQueryEngine) -> int:
    """``AsyncQueryEngine.pick_origin`` as it was before the alive list
    was memoised — body kept verbatim — drawing from a *copy* of the
    engine's RNG so the engine's own next draw starts from the same state."""
    self = copy.copy(engine)
    self._rng = copy.deepcopy(engine._rng)
    alive = [nid for nid in self.system.router.node_ids if self.net.is_alive(nid)]
    if not alive:
        raise RuntimeError("no alive peer can originate a query")
    return alive[int(self._rng.integers(len(alive)))]


def assert_same_origin(engine: AsyncQueryEngine) -> None:
    try:
        expected = oracle_pick_origin(engine)
    except RuntimeError as error:
        with pytest.raises(RuntimeError, match=str(error)):
            engine.pick_origin()
        return
    assert engine.pick_origin() == expected


#: One step of a liveness/membership history: (operation, selector).
#: The selector picks the peer (or the new peer's name) the step acts on.
ORIGIN_STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["crash", "recover", "schedule", "tick", "unregister",
             "register", "join", "leave", "query"]
        ),
        st.integers(0, 10_000),
    ),
    max_size=25,
)


def apply_origin_step(engine: AsyncQueryEngine, name: str, pick: int) -> None:
    system, net, sim = engine.system, engine.net, engine.sim
    ids = system.router.node_ids
    peer = ids[pick % len(ids)]
    chord = system.ring is not None
    if name == "crash":
        system.crash_peer(peer)
    elif name == "recover":
        system.recover_peer(peer)
    elif name == "schedule":
        # Fires during a later "tick" or "query", not now.
        sim.call_at(sim.now + 1.0, lambda: system.crash_peer(peer))
        if pick % 2:
            sim.call_at(sim.now + 3.0, lambda: system.recover_peer(peer))
    elif name == "tick":
        sim.run(until=sim.now + 1.5)
    elif name == "unregister":
        net.unregister(peer)
    elif name == "register":
        # Also the way a peer that joined the overlay mid-run comes
        # alive for the engine; peers CAN admitted have no store.
        handler = (
            system.peer_handler(peer) if peer in system.stores
            else (lambda message: None)
        )
        net.register(peer, handler)
    elif name == "join":
        if chord:
            system.join_peer(f"late-{pick}")
        else:
            system.router.overlay.join(f"late-{pick}")
    elif name == "leave" and len(ids) > 2:
        if chord:
            system.leave_peer(peer)
        else:
            system.router.overlay.leave(peer)
    elif name == "query":
        engine.run(IntRange(100 + pick % 50, 300), origin=ids[0])


class TestPickOriginOracle:
    @pytest.mark.parametrize("overlay", ["chord", "can"])
    @settings(max_examples=40, deadline=None)
    @given(steps=ORIGIN_STEPS)
    def test_same_draw_as_the_per_call_scan(self, overlay, steps):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=6, seed=3, overlay=overlay)
        )
        engine = AsyncQueryEngine(
            system, seed=3, policy=RetryPolicy(timeout_ms=50.0, max_retries=0)
        )
        assert_same_origin(engine)
        for name, pick in steps:
            try:
                apply_origin_step(engine, name, pick)
            except DuplicateNodeError:
                pass  # hypothesis drew the same late joiner twice
            assert_same_origin(engine)
            assert_same_origin(engine)  # and again from the memo

    @pytest.mark.parametrize("overlay", ["chord", "can"])
    def test_nothing_alive_raises_then_recovers(self, overlay):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=5, seed=3, overlay=overlay)
        )
        engine = AsyncQueryEngine(system, seed=3)
        ids = system.router.node_ids
        for peer in ids:
            engine.sim.call_at(2.0, lambda peer=peer: system.crash_peer(peer))
        assert_same_origin(engine)
        engine.sim.run(until=5.0)
        with pytest.raises(RuntimeError, match="no alive peer"):
            engine.pick_origin()
        assert_same_origin(engine)
        system.recover_peer(ids[2])
        assert engine.pick_origin() == ids[2]

    def test_reregistering_every_peer_costs_one_rebuild(self):
        """``register`` stays O(1): the harness re-registers every peer's
        handler, and the list is rebuilt once, on the next pick."""
        engine = make_engine(n_peers=40)
        engine.pick_origin()
        built = engine._alive
        for peer in engine.system.router.node_ids:
            engine.net.register(peer, engine.system.peer_handler(peer))
        assert engine._alive is built
        assert_same_origin(engine)
        assert engine._alive is not built
        rebuilt = engine._alive
        for _ in range(5):
            assert_same_origin(engine)
        assert engine._alive is rebuilt
