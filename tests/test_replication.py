"""Tests for successor-list replication: placement, failover, repair.

Covers the chord-layer successor lists, the system-level replica
placement with primary/replica roles, synchronous failover lookups against
crashed peers, the anti-entropy repair pass, and data survival across
graceful membership changes.
"""

from __future__ import annotations

import pytest

from repro.chord.ring import ChordRing
from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import ChordError, ConfigError
from repro.ranges.interval import IntRange


def build_system(n_peers: int = 24, replicas: int = 3, **overrides):
    config = SystemConfig(
        n_peers=n_peers,
        replicas=replicas,
        store_on_miss=False,
        seed=11,
        **overrides,
    )
    return RangeSelectionSystem(config)


class TestSuccessorLists:
    def test_build_populates_lists(self):
        ring = ChordRing(m=16, successor_list_size=3)
        ring.add_nodes(10)
        ring.build()
        ids = ring.node_ids
        for index, node_id in enumerate(ids):
            expected = [ids[(index + 1 + i) % len(ids)] for i in range(3)]
            assert ring.node(node_id).successor_list == expected

    def test_list_shorter_than_r_on_tiny_ring(self):
        ring = ChordRing(m=16, successor_list_size=4)
        ring.add_nodes(3)
        ring.build()
        for node_id in ring.node_ids:
            assert len(ring.node(node_id).successor_list) == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(ChordError):
            ChordRing(successor_list_size=0)

    def test_successor_chain_is_placement_ground_truth(self):
        ring = ChordRing(m=16, successor_list_size=3)
        ring.add_nodes(12)
        ring.build()
        key = 777
        owner = ring.successor_of(key)
        chain = ring.successor_chain(key, 3)
        assert chain[0] == owner
        assert chain[1:] == ring.node(owner).successor_list[:2]

    def test_successor_chain_with_predicate_skips_rejected(self):
        ring = ChordRing(m=16, successor_list_size=3)
        ring.add_nodes(12)
        ring.build()
        full = ring.successor_chain(500, 3)
        filtered = ring.successor_chain(500, 3, predicate=lambda n: n != full[0])
        assert full[0] not in filtered
        assert len(filtered) == 3


class TestConfig:
    def test_replicas_must_be_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(replicas=0)

    def test_replication_requires_chord(self):
        with pytest.raises(ConfigError):
            SystemConfig(overlay="can", replicas=2)

    def test_replicas_bounded_by_peers(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=2, replicas=3)


class TestReplicaPlacement:
    def test_entry_lands_on_owner_and_successors(self):
        system = build_system()
        query = IntRange(100, 160)
        system.store_partition(query)
        for identifier in system.identifiers_for(query):
            owners = system.replica_owners(identifier)
            assert len(owners) == 3
            for rank, peer_id in enumerate(owners):
                bucket = system.stores[peer_id].bucket(identifier)
                assert bucket is not None
                entries = list(bucket)
                assert len(entries) == 1
                assert entries[0].primary == (rank == 0)
        system.check_placement_invariant()

    def test_replica_counters_track_roles(self):
        system = build_system()
        system.store_partition(IntRange(100, 160))
        primaries = sum(s.primary_count for s in system.stores.values())
        replicas = sum(s.replica_count for s in system.stores.values())
        assert primaries == len(set(system.identifiers_for(IntRange(100, 160))))
        assert replicas == 2 * primaries
        assert system.counters.replica_placements == replicas
        assert system.network.stats.replica_stores == replicas

    def test_replicas_one_reproduces_unreplicated_layout(self):
        system = build_system(replicas=1)
        system.store_partition(IntRange(100, 160))
        assert all(s.replica_count == 0 for s in system.stores.values())
        system.check_placement_invariant()


class TestFailoverLookup:
    def test_crashed_owner_served_by_replica(self):
        system = build_system()
        query = IntRange(200, 260)
        system.store_partition(query)
        victim = system.replica_owners(system.identifiers_for(query)[0])[0]
        system.crash_peer(victim)
        result = system.locate(query)
        assert result.best is not None
        assert result.failovers >= 1
        assert result.timeouts == 0
        assert system.network.stats.failovers >= 1
        assert system.counters.failovers >= 1

    def test_healthy_lookup_never_fails_over(self):
        system = build_system()
        query = IntRange(200, 260)
        system.store_partition(query)
        result = system.locate(query)
        assert result.failovers == 0
        assert system.network.stats.failovers == 0

    def test_unreplicated_lookup_loses_crashed_owner(self):
        system = build_system(replicas=1)
        query = IntRange(200, 260)
        system.store_partition(query)
        identifier = system.identifiers_for(query)[0]
        victim = system.replica_owners(identifier)[0]
        system.crash_peer(victim)
        result = system.locate(query)
        assert result.failovers == 0
        assert result.timeouts >= 1
        assert system.network.stats.failover_exhausted >= 1

    def test_every_replica_down_degrades_loudly(self):
        system = build_system(n_peers=3, replicas=3)
        query = IntRange(200, 260)
        system.store_partition(query)
        for node_id in system.router.node_ids:
            system.crash_peer(node_id)
        result = system.locate(query)
        assert result.best is None
        assert result.timeouts == len(result.identifiers)
        assert result.peers_contacted == 0
        assert system.counters.failed_lookups == len(result.identifiers)

    def test_recover_restores_direct_answers(self):
        system = build_system()
        query = IntRange(200, 260)
        system.store_partition(query)
        victim = system.replica_owners(system.identifiers_for(query)[0])[0]
        system.crash_peer(victim)
        system.locate(query)
        system.recover_peer(victim)
        before = system.network.stats.failovers
        result = system.locate(query)
        assert result.best is not None
        assert system.network.stats.failovers == before


class TestRepair:
    def test_repair_restores_replication_factor(self):
        system = build_system()
        query = IntRange(300, 360)
        system.store_partition(query)
        identifier = system.identifiers_for(query)[0]
        nominal = system.replica_owners(identifier)
        system.crash_peer(nominal[0])
        copies = system.repair_replicas()
        assert copies > 0
        assert system.counters.repairs == copies
        targets = system.replica_targets(identifier, system.network.is_alive)
        for target in targets:
            assert system.stores[target].bucket(identifier) is not None

    def test_repair_is_idempotent(self):
        system = build_system()
        system.store_partition(IntRange(300, 360))
        system.crash_peer(system.router.node_ids[0])
        system.repair_replicas()
        assert system.repair_replicas() == 0

    def test_unrepairable_when_no_copy_survives(self):
        system = build_system(replicas=1)
        query = IntRange(300, 360)
        system.store_partition(query)
        for identifier in system.identifiers_for(query):
            system.crash_peer(system.replica_owners(identifier)[0])
        assert system.repair_replicas() == 0

    def test_failover_reaches_repaired_copies(self):
        system = build_system(replicas=2)
        query = IntRange(300, 360)
        system.store_partition(query)
        # Crash the nominal replica set one rank at a time, repairing in
        # between — data survives by hopping to alive successors, and
        # failover must chase it past the (dead) nominal set.
        for rank in range(2):
            for identifier in system.identifiers_for(query):
                victim = system.replica_owners(identifier)[rank]
                if system.network.is_alive(victim):
                    system.crash_peer(victim)
            system.repair_replicas()
        result = system.locate(query)
        assert result.best is not None
        assert result.failovers >= 1


class TestMembershipWithReplication:
    def test_leave_preserves_every_descriptor(self):
        system = build_system()
        queries = [IntRange(s, s + 50) for s in range(0, 800, 90)]
        for query in queries:
            system.store_partition(query)
        unique_before = system.unique_partitions()
        victim = max(
            system.router.node_ids,
            key=lambda nid: system.stores[nid].partition_count,
        )
        system.leave_peer(victim)
        assert system.unique_partitions() == unique_before
        system.check_placement_invariant()

    def test_leave_promotes_surviving_replica(self):
        system = build_system()
        query = IntRange(400, 460)
        system.store_partition(query)
        identifier = system.identifiers_for(query)[0]
        owner = system.replica_owners(identifier)[0]
        system.leave_peer(owner)
        new_owner = system.replica_owners(identifier)[0]
        bucket = system.stores[new_owner].bucket(identifier)
        assert bucket is not None
        assert all(entry.primary for entry in bucket)

    def test_join_rebalances_replica_sets(self):
        system = build_system()
        for start in range(0, 800, 90):
            system.store_partition(IntRange(start, start + 50))
        unique_before = system.unique_partitions()
        system.join_peer("late-joiner")
        assert system.unique_partitions() == unique_before
        system.check_placement_invariant()
        assert system.rebalance() == 0

    def test_rebalance_fixes_misplaced_replica(self):
        system = build_system()
        query = IntRange(500, 560)
        system.store_partition(query)
        identifier = system.identifiers_for(query)[0]
        owners = system.replica_owners(identifier)
        outsider = next(
            nid for nid in system.router.node_ids if nid not in owners
        )
        entry = next(iter(system.stores[owners[0]].bucket(identifier)))
        system.stores[outsider].store(identifier, entry.descriptor, primary=False)
        with pytest.raises(ConfigError):
            system.check_placement_invariant()
        assert system.rebalance() >= 1
        system.check_placement_invariant()
        assert system.rebalance() == 0

    def test_invariant_rejects_wrong_primary_flag(self):
        system = build_system()
        query = IntRange(500, 560)
        system.store_partition(query)
        identifier = system.identifiers_for(query)[0]
        replica_holder = system.replica_owners(identifier)[1]
        entry = next(iter(system.stores[replica_holder].bucket(identifier)))
        entry.primary = True
        with pytest.raises(ConfigError):
            system.check_placement_invariant()
