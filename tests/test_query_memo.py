"""The query path's memo tables answer exactly what recomputing would.

A repeated range re-runs four pure steps: its identifiers, each
identifier's ring position, each position's nominal replica set and each
owner's bucket match.  Each is remembered behind the method that computes
it; these tests hold every remembered answer to a fresh computation
across the mutations that must invalidate it.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.hashing import rehash_for_placement
from repro.chord.ring import ChordRing
from repro.core import placement as placement_module
from repro.core.config import SystemConfig
from repro.core.matcher import ContainmentMatcher, JaccardMatcher
from repro.core.placement import HashedPlacement
from repro.core.system import RangeSelectionSystem
from repro.db.partition import Partition, PartitionDescriptor
from repro.ranges.interval import IntRange
from repro.storage.bucket import COLUMNAR_MIN_ENTRIES
from repro.storage.store import LRUEviction, PeerStore
from tests.test_storage import linear_scan

MATCHERS = (JaccardMatcher(), ContainmentMatcher())


# ---------------------------------------------------------------------------
# The matchers' scalar twins
# ---------------------------------------------------------------------------

# Small ranges that overlap often, and ranges past int64 and float64
# exactness (no wider than ``len`` can report, which the reference needs).
ranges = st.one_of(
    st.tuples(st.integers(-50, 50), st.integers(0, 60)),
    st.tuples(st.integers(-(2**70), 2**70), st.integers(0, 2**62)),
    st.tuples(st.integers(2**53 - 40, 2**53 + 40), st.integers(0, 80)),
).map(lambda start_width: IntRange(start_width[0], start_width[0] + start_width[1]))


class TestScalarTwin:
    @settings(max_examples=300, deadline=None)
    @given(query=ranges, stored=st.lists(ranges, max_size=12))
    def test_scalar_twin_is_score_bit_for_bit(self, query, stored):
        for matcher in MATCHERS:
            expected = [
                matcher.score(query, PartitionDescriptor("R", "value", r)) for r in stored
            ]
            found = matcher.score.scalar(query, stored)
            assert found == expected
            assert all(type(value) is float for value in found)

    def test_subclass_overriding_score_sheds_the_twin(self):
        class Inverted(JaccardMatcher):
            def score(self, query, candidate):
                return -super().score(query, candidate)

        assert not hasattr(Inverted().score, "scalar")
        assert not hasattr(Inverted().score, "columns")


# ---------------------------------------------------------------------------
# One remembered answer per bucket
# ---------------------------------------------------------------------------

GROUPS = (("R", "value"), ("R", "age"))
descriptors = st.builds(
    lambda group, start, length: PartitionDescriptor(
        group[0], group[1], IntRange(start, start + length)
    ),
    st.sampled_from(GROUPS + (GROUPS[0],) * 4),
    st.integers(0, 14),
    st.integers(0, 8),
)
# Scorers: the two matchers (remembered) and a plain callable (never).
SCORERS = tuple(m.score for m in MATCHERS) + (
    lambda q, d: ((d.range.start * 3 + q.end) % 4) / 3.0,
)
queries = st.builds(
    lambda start, length: IntRange(start, start + length),
    st.integers(0, 16), st.integers(0, 9),
)
bucket_ops = st.one_of(
    # Adds: new entries, duplicates and row upgrades of stored ones.
    st.tuples(st.just("store"), descriptors, st.booleans()),
    st.tuples(st.just("store"), descriptors, st.booleans()),
    st.tuples(st.just("store"), descriptors, st.booleans()),
    st.tuples(st.just("remove"), descriptors),
    st.tuples(
        st.just("match"), queries, st.sampled_from(GROUPS),
        st.integers(0, len(SCORERS) - 1), st.integers(1, 3),
    ),
)


def assert_answer_is_the_scan(found, expected) -> None:
    assert (found is None) == (expected is None)
    if found is not None:
        assert found[0] is expected[0]
        assert found[1] == expected[1]
        assert type(found[1]) is float


class TestBucketAnswer:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(bucket_ops, min_size=20, max_size=90),
        capacity=st.none() | st.integers(COLUMNAR_MIN_ENTRIES - 2, 2 * COLUMNAR_MIN_ENTRIES),
    )
    def test_every_answer_is_the_linear_scan(self, ops, capacity):
        # One identifier, so every operation lands in one bucket, which
        # grows past the columnar break-even size and (by removal or LRU
        # eviction) shrinks back under it.
        store = PeerStore(1, LRUEviction(capacity) if capacity is not None else None)
        for kind, *args in ops:
            if kind == "store":
                descriptor, with_rows = args
                rows = Partition(descriptor, rows=((1,),)) if with_rows else None
                store.store(7, descriptor, rows)
            elif kind == "remove":
                store.remove(7, args[0])
            else:
                query, (relation, attribute), which, repeats = args
                scorer = SCORERS[which]
                for _ in range(repeats):
                    bucket = store.bucket(7)
                    expected = (
                        None if bucket is None
                        else linear_scan(bucket, query, relation, attribute, scorer)
                    )
                    found = store.best_match_in_bucket(7, query, relation, attribute, scorer)
                    assert_answer_is_the_scan(found, expected)

    def test_answers_across_the_columnar_break_even_both_ways(self):
        store = PeerStore(1)
        stored = [
            PartitionDescriptor("R", "value", IntRange(i, i + 6 + i % 3))
            for i in range(COLUMNAR_MIN_ENTRIES + 3)
        ]
        asked = [IntRange(2, 9), IntRange(5, 12), IntRange(0, 30)]

        def check() -> None:
            bucket = store.bucket(7)
            for query in asked * 2:
                for scorer in SCORERS:
                    expected = linear_scan(bucket, query, "R", "value", scorer)
                    found = store.best_match_in_bucket(7, query, "R", "value", scorer)
                    assert_answer_is_the_scan(found, expected)

        for descriptor in stored:
            store.store(7, descriptor)
            check()
        assert store.bucket(7)._index is not None
        for descriptor in reversed(stored[1:]):
            store.remove(7, descriptor)
            check()
        assert store.bucket(7)._index is None

    def test_remembered_answer_is_served_until_the_entries_change(self):
        store = PeerStore(1)
        for i in range(1, 4):
            store.store(7, PartitionDescriptor("R", "value", IntRange(i, i + 10)))
        bucket = store.bucket(7)
        scorer = JaccardMatcher().score
        query = IntRange(0, 10)
        first = bucket.best_match(query, "R", "value", scorer)
        assert first[0].descriptor.range == IntRange(1, 11)
        assert bucket.best_match(IntRange(0, 10), "R", "value", scorer) is first
        # A duplicate store changes no answer; a new entry does.
        store.store(7, PartitionDescriptor("R", "value", IntRange(2, 12)))
        assert bucket.best_match(query, "R", "value", scorer) is first
        store.store(7, PartitionDescriptor("R", "value", IntRange(0, 10)))
        best = bucket.best_match(query, "R", "value", scorer)
        assert best[1] == 1.0 and best[0].descriptor.range == query
        store.remove(7, best[0].descriptor)
        assert bucket.best_match(query, "R", "value", scorer) == first

    def test_the_access_clock_still_moves_on_a_remembered_answer(self):
        store = PeerStore(1, LRUEviction(10))
        for i in range(3):
            store.store(7, PartitionDescriptor("R", "value", IntRange(i, i + 10)))
        scorer = JaccardMatcher().score
        clocks = []
        for _ in range(3):
            entry, _ = store.best_match_in_bucket(7, IntRange(1, 11), "R", "value", scorer)
            clocks.append(entry.access_clock)
        assert clocks == sorted(set(clocks)) and store.queries_served == 3


# ---------------------------------------------------------------------------
# Identifiers per range, ring position per identifier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def placement():
    return HashedPlacement(SystemConfig(n_peers=8, k=4))


class TestIdentifierTable:
    @settings(max_examples=60, deadline=None)
    @given(asked=st.lists(st.sampled_from(range(12)), min_size=1, max_size=40))
    def test_identifiers_equal_the_scheme_across_clears(self, placement, asked):
        pool = [IntRange(5 * i, 5 * i + 3 * i + 1) for i in range(12)]
        with mock.patch.object(placement_module, "IDENTIFIERS_CACHE_LIMIT", 5):
            for index in asked:
                r = pool[index]
                assert placement.identifiers_for(r) == placement.scheme.identifiers(r)
                assert len(placement._identifiers) <= 5

    def test_a_returned_list_is_the_callers_own(self, placement):
        r = IntRange(10, 40)
        expected = placement.scheme.identifiers(r)
        mine = placement.identifiers_for(r)
        mine.append(-1)
        mine[0] = -2
        assert placement.identifiers_for(r) == expected

    def test_table_travels_with_the_scheme(self):
        old = HashedPlacement(SystemConfig(n_peers=8, k=4))
        r = IntRange(3, 30)
        old.identifiers_for(r)
        same = HashedPlacement(SystemConfig(n_peers=9, replicas=3, k=4), previous=old)
        assert same._identifiers is old._identifiers
        other = HashedPlacement(SystemConfig(n_peers=8, k=5), previous=old)
        assert other._identifiers is not old._identifiers
        assert other.identifiers_for(r) == other.scheme.identifiers(r)

    def test_ring_positions_equal_the_rehash_across_clears(self, placement):
        with mock.patch.object(placement_module, "PLACED_CACHE_LIMIT", 7):
            for identifier in list(range(20)) * 2 + [2**40, 2**63]:
                assert placement.place_identifier(identifier) == rehash_for_placement(
                    identifier, placement.config.id_bits
                )
                assert len(placement._placed) <= 7


# ---------------------------------------------------------------------------
# Nominal replica sets per (key, count)
# ---------------------------------------------------------------------------

def fresh_chain(node_ids, key: int, count: int, m: int = 32) -> list[int]:
    ring = ChordRing(m=m)
    for node_id in node_ids:
        ring.add_node(node_id=node_id)
    ring.build()
    return ring._walk(key, count, None)


KEYS = [0, 1, 2**31, 2**32 - 1, 123_456_789, 3_000_000_000]


class TestChainTable:
    def assert_chains_fresh(self, ring: ChordRing) -> None:
        # Short, longer, past the ring's size, then short again: a
        # remembered chain serves its prefixes and grows when asked.
        for key in KEYS:
            for count in (1, 3, 50, 2):
                chain = ring.successor_chain(key, count)
                assert chain == fresh_chain(ring.node_ids, key, count)

    def test_chains_follow_membership(self):
        ring = ChordRing(m=32)
        ring.add_nodes(12)
        ring.build()
        self.assert_chains_fresh(ring)
        ring.add_node("late-joiner")
        ring.build()
        self.assert_chains_fresh(ring)
        for node_id in ring.node_ids[::3]:
            ring.remove_node(node_id)
        ring.build()
        self.assert_chains_fresh(ring)

    def test_a_returned_chain_is_the_callers_own(self):
        ring = ChordRing(m=32)
        ring.add_nodes(6)
        ring.build()
        chain = ring.successor_chain(99, 3)
        expected = list(chain)
        chain.insert(0, -1)
        assert ring.successor_chain(99, 3) == expected

    def test_table_is_bounded(self):
        ring = ChordRing(m=32)
        ring.add_nodes(6)
        ring.build()
        with mock.patch("repro.chord.ring.CHAIN_CACHE_LIMIT", 4):
            for key in range(0, 2**32, 2**32 // 17):
                assert ring.successor_chain(key, 2) == fresh_chain(ring.node_ids, key, 2)
                assert len(ring._chains) <= 4

    def test_replica_sets_follow_join_and_leave(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, replicas=3, seed=2))
        ring = system.ring
        for r in (IntRange(10, 40), IntRange(100, 180), IntRange(500, 520)):
            system.query(r)
        positions = [
            system.place_identifier(i)
            for r in (IntRange(10, 40), IntRange(100, 180), IntRange(500, 520))
            for i in system.identifiers_for(r)
        ]

        def check() -> None:
            for key in positions:
                assert system.router.replica_set(key, 3) == fresh_chain(
                    ring.node_ids, key, 3
                )

        check()
        node = system.join_peer("joiner-1")
        check()
        system.leave_peer(node.node_id)
        check()
        system.leave_peer(ring.node_ids[4])
        check()

    def test_a_predicate_walk_is_never_served_from_the_table(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, replicas=3, seed=2))
        r = IntRange(10, 40)
        system.query(r)
        identifier = system.identifiers_for(r)[0]
        nominal = system.replica_owners(identifier)
        system.crash_peer(nominal[0])
        alive = system.network.is_alive
        targets = system.replica_targets(identifier, alive)
        assert nominal[0] not in targets and len(targets) == 3
        assert targets == [
            n for n in fresh_chain(system.ring.node_ids, system.place_identifier(identifier), 16)
            if alive(n)
        ][:3]
        failover = system.failover_candidates(identifier, alive)
        assert failover == nominal + [n for n in targets if n not in nominal]
        # The nominal set does not move with a crash.
        assert system.replica_owners(identifier) == nominal
