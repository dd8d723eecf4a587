"""Tests for system-level churn: join/leave with partition handoff."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import ConfigError
from repro.ranges.interval import IntRange
from repro.workloads.generators import UniformRangeWorkload


def warmed_system(n_peers: int = 40, n_queries: int = 200) -> RangeSelectionSystem:
    system = RangeSelectionSystem(SystemConfig(n_peers=n_peers, seed=61))
    workload = UniformRangeWorkload(system.config.domain, n_queries, seed=62)
    for query in workload:
        system.query(query)
    return system


class TestJoin:
    def test_join_preserves_placement_invariant(self):
        system = warmed_system()
        before = system.total_placements()
        system.join_peer("late-arrival-1")
        system.check_placement_invariant()
        assert system.total_placements() == before  # nothing lost

    def test_join_then_queries_still_resolve(self):
        system = warmed_system()
        system.query(IntRange(100, 200))
        system.join_peer("late-arrival-2")
        repeat = system.query(IntRange(100, 200))
        assert repeat.exact  # the migrated partition is still findable

    def test_joined_peer_can_receive_load(self):
        system = warmed_system(n_peers=5)
        node = system.join_peer("late-arrival-3")
        # Store more data; some of it may land on the new peer.  At minimum
        # the new peer participates in routing without errors.
        for start in range(0, 900, 30):
            system.query(IntRange(start, start + 40))
        system.check_placement_invariant()
        assert node.node_id in system.stores


class TestLeave:
    def test_leave_hands_over_partitions(self):
        system = warmed_system()
        victim = system.ring.node_ids[0]
        held = system.stores[victim].partition_count
        before = system.total_placements()
        moved = system.leave_peer(victim)
        assert moved == held
        assert system.total_placements() == before
        system.check_placement_invariant()

    def test_leave_then_exact_queries_still_hit(self):
        system = warmed_system()
        system.query(IntRange(300, 400))
        # Remove whichever peers currently hold that partition.
        holders = {
            store.peer_id
            for store in system.stores.values()
            for _, entry in store.entries()
            if entry.descriptor.range == IntRange(300, 400)
        }
        for victim in list(holders)[:2]:
            system.leave_peer(victim)
        repeat = system.query(IntRange(300, 400))
        assert repeat.exact

    def test_cannot_remove_last_peer(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=1, seed=63))
        with pytest.raises(ConfigError):
            system.leave_peer(system.ring.node_ids[0])


class TestRebalance:
    def test_rebalance_idempotent(self):
        system = warmed_system()
        system.join_peer("extra")
        assert system.rebalance() == 0  # join already rebalanced

    def test_invariant_violation_detected(self):
        system = warmed_system(n_peers=10, n_queries=30)
        # Manually misplace an entry at the wrong peer.
        holder = next(
            store for store in system.stores.values() if store.partition_count
        )
        identifier, entry = next(iter(holder.entries()))
        owner = system.ring.successor_of(system.place_identifier(identifier))
        wrong = next(nid for nid in system.ring.node_ids if nid != owner)
        holder.remove(identifier, entry.descriptor)
        system.stores[wrong].store(identifier, entry.descriptor, entry.partition)
        with pytest.raises(ConfigError):
            system.check_placement_invariant()
        assert system.rebalance() == 1
        system.check_placement_invariant()
