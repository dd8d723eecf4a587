"""Tests for event-driven failover lookups and the anti-entropy repairer."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.net.latency import ConstantLatency
from repro.ranges.interval import IntRange
from repro.sim import AsyncQueryEngine, ReplicaRepairer, RetryPolicy
from repro.sim.repair import RepairStats


def make_engine(
    n_peers: int = 24, replicas: int = 3, store_on_miss: bool = False
) -> AsyncQueryEngine:
    system = RangeSelectionSystem(
        SystemConfig(
            n_peers=n_peers,
            replicas=replicas,
            store_on_miss=store_on_miss,
            seed=11,
        )
    )
    return AsyncQueryEngine(
        system,
        latency=ConstantLatency(10.0),
        policy=RetryPolicy(timeout_ms=200.0, max_retries=1),
        seed=11,
    )


class TestAsyncFailover:
    def test_crashed_owner_answered_by_replica(self):
        engine = make_engine()
        query = IntRange(100, 160)
        engine.system.store_partition(query)
        identifier = engine.system.identifiers_for(query)[0]
        victim = engine.system.replica_owners(identifier)[0]
        engine.system.crash_peer(victim)
        result = engine.run(query)
        assert result.found
        assert result.failovers >= 1
        assert result.timeouts == 0
        assert engine.net.stats.failovers >= 1
        served = next(c for c in result.chains if c.identifier == identifier)
        assert served.reply is not None
        assert served.reply.peer_id != victim
        assert served.failovers >= 1

    def test_failover_costs_waiting_time(self):
        engine = make_engine()
        query = IntRange(100, 160)
        engine.system.store_partition(query)
        healthy = engine.run(query)
        victim = engine.system.replica_owners(
            engine.system.identifiers_for(query)[0]
        )[0]
        engine.system.crash_peer(victim)
        degraded = engine.run(query)
        # The failed-over chain waits out the owner's full retry schedule.
        assert degraded.total_ms > healthy.total_ms + engine.net.policy.timeout_ms

    def test_default_failover_budget_is_single_attempt(self):
        engine = make_engine()
        assert engine.net.failover_policy.total_attempts == 1
        assert engine.net.failover_policy.timeout_ms == engine.net.policy.timeout_ms

    def test_unreplicated_chain_still_times_out(self):
        engine = make_engine(replicas=1)
        query = IntRange(100, 160)
        engine.system.store_partition(query)
        identifier = engine.system.identifiers_for(query)[0]
        engine.system.crash_peer(engine.system.replica_owners(identifier)[0])
        result = engine.run(query)
        assert result.failovers == 0
        assert result.timeouts >= 1
        assert engine.net.stats.failover_exhausted >= 1

    def test_store_on_miss_fans_out_to_replicas(self):
        engine = make_engine(store_on_miss=True)
        engine.run(IntRange(500, 580))
        system = engine.system
        assert sum(s.replica_count for s in system.stores.values()) > 0
        assert engine.net.stats.replica_stores > 0
        system.check_placement_invariant()


class TestReplicaRepairer:
    def test_round_restores_missing_copies(self):
        engine = make_engine()
        query = IntRange(200, 260)
        engine.system.store_partition(query)
        identifier = engine.system.identifiers_for(query)[0]
        engine.system.crash_peer(engine.system.replica_owners(identifier)[0])
        repairer = ReplicaRepairer(engine, interval_ms=1_000.0)
        created = engine.sim.run_until_complete(repairer.run_round())
        assert created > 0
        assert repairer.stats.copies_created == created
        assert repairer.stats.rounds == 1
        for target in engine.system.replica_targets(
            identifier, engine.net.is_alive
        ):
            assert engine.system.stores[target].bucket(identifier) is not None

    def test_round_with_nothing_to_do_resolves_zero(self):
        engine = make_engine()
        engine.system.store_partition(IntRange(200, 260))
        repairer = ReplicaRepairer(engine, interval_ms=1_000.0)
        assert engine.sim.run_until_complete(repairer.run_round()) == 0

    def test_unrepairable_loss_is_counted(self):
        engine = make_engine(replicas=1)
        query = IntRange(200, 260)
        engine.system.store_partition(query)
        for identifier in engine.system.identifiers_for(query):
            victim = engine.system.replica_owners(identifier)[0]
            if engine.net.is_alive(victim):
                engine.system.crash_peer(victim)
        repairer = ReplicaRepairer(engine, interval_ms=1_000.0)
        created = engine.sim.run_until_complete(repairer.run_round())
        assert created == 0
        assert repairer.stats.unrepairable > 0

    def test_periodic_rounds_run_while_queries_drive_the_clock(self):
        engine = make_engine()
        engine.system.store_partition(IntRange(200, 260))
        repairer = ReplicaRepairer(engine, interval_ms=50.0)
        repairer.start()
        assert repairer.running
        for _ in range(4):
            engine.run(IntRange(200, 259))
        repairer.stop()
        assert not repairer.running
        assert repairer.stats.rounds >= 1

    def test_start_stop_idempotent(self):
        engine = make_engine()
        repairer = ReplicaRepairer(engine, interval_ms=50.0)
        repairer.start()
        repairer.start()
        repairer.stop()
        repairer.stop()
        assert not repairer.running

    def test_rejects_bad_interval(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            ReplicaRepairer(engine, interval_ms=0.0)

    def test_stats_describe(self):
        stats = RepairStats()
        stats.rounds = 2
        stats.copies_created = 5
        text = stats.describe()
        assert "2 rounds" in text and "5 copies" in text

    def test_repair_keeps_recall_after_waves_of_churn(self):
        engine = make_engine(n_peers=30)
        queries = [IntRange(s, s + 40) for s in range(0, 700, 80)]
        for query in queries:
            engine.system.store_partition(query)
        repairer = ReplicaRepairer(engine, interval_ms=1_000.0)
        node_ids = engine.system.router.node_ids
        doomed = node_ids[::5]  # 6 of 30 peers, spread around the ring
        for wave in range(2):
            for peer_id in doomed[wave::2]:
                engine.system.crash_peer(peer_id)
            engine.sim.run_until_complete(repairer.run_round())
        for query in queries:
            result = engine.run(IntRange(query.start + 1, query.end + 1))
            assert result.found
