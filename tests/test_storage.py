"""Tests for buckets, peer stores and eviction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matcher import ContainmentMatcher, JaccardMatcher
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import StorageError
from repro.ranges.interval import IntRange
from repro.similarity.measures import jaccard
from repro.storage.bucket import (
    COLUMN_BOUND,
    COLUMNAR_MIN_ENTRIES,
    Bucket,
    StoredEntry,
)
from repro.storage.store import LRUEviction, PeerStore


def desc(start: int, end: int, relation: str = "R") -> PartitionDescriptor:
    return PartitionDescriptor(relation, "value", IntRange(start, end))


def score(query: IntRange, candidate: PartitionDescriptor) -> float:
    return jaccard(query, candidate.range)


class TestBucket:
    def test_add_and_contains(self):
        bucket = Bucket(7)
        assert bucket.add(StoredEntry(desc(0, 10)))
        assert desc(0, 10) in bucket
        assert len(bucket) == 1

    def test_duplicate_add_returns_false(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 10)))
        assert not bucket.add(StoredEntry(desc(0, 10)))
        assert len(bucket) == 1

    def test_readd_with_rows_upgrades(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 10)))
        partition = Partition(descriptor=desc(0, 10), rows=((1,),))
        bucket.add(StoredEntry(desc(0, 10), partition=partition))
        assert bucket.get(desc(0, 10)).partition is partition

    def test_best_match_picks_highest_score(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 100)))
        bucket.add(StoredEntry(desc(40, 60)))
        best = bucket.best_match(IntRange(45, 55), "R", "value", score)
        assert best is not None
        assert best[0].descriptor == desc(40, 60)

    def test_best_match_filters_relation_and_attribute(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 10, relation="S")))
        assert bucket.best_match(IntRange(0, 10), "R", "value", score) is None

    def test_exact_match_wins_ties(self):
        bucket = Bucket(7)
        query = IntRange(10, 20)
        bucket.add(StoredEntry(desc(10, 20)))
        best = bucket.best_match(query, "R", "value", score)
        assert best[0].descriptor.range == query and best[1] == 1.0

    def test_remove(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 10)))
        assert bucket.remove(desc(0, 10)) is not None
        assert bucket.remove(desc(0, 10)) is None


class TestPeerStore:
    def test_store_and_count(self):
        store = PeerStore(1)
        assert store.store(100, desc(0, 10))
        assert not store.store(100, desc(0, 10))  # duplicate
        assert store.store(200, desc(0, 10))  # same descriptor, other bucket
        assert store.partition_count == 2
        assert store.bucket_count == 2

    def test_best_match_in_bucket_only_searches_that_bucket(self):
        store = PeerStore(1)
        store.store(100, desc(0, 10))
        store.store(200, desc(40, 60))
        found = store.best_match_in_bucket(100, IntRange(45, 55), "R", "value", score)
        assert found is None or found[1] == 0.0  # [0,10] scores 0 vs [45,55]
        assert (
            store.best_match_in_bucket(200, IntRange(45, 55), "R", "value", score)[1]
            > 0.5
        )

    def test_best_match_local_searches_everything(self):
        store = PeerStore(1)
        store.store(100, desc(0, 10))
        store.store(200, desc(40, 60))
        found = store.best_match_local(IntRange(45, 55), "R", "value", score)
        assert found is not None
        assert found[0].descriptor == desc(40, 60)

    def test_missing_bucket(self):
        store = PeerStore(1)
        assert store.bucket(5) is None
        assert store.best_match_in_bucket(5, IntRange(0, 1), "R", "value", score) is None

    def test_remove_prunes_empty_bucket(self):
        store = PeerStore(1)
        store.store(100, desc(0, 10))
        assert store.remove(100, desc(0, 10))
        assert store.bucket_count == 0
        assert not store.remove(100, desc(0, 10))

    def test_entries_iteration(self):
        store = PeerStore(1)
        store.store(100, desc(0, 10))
        store.store(100, desc(5, 15))
        pairs = list(store.entries())
        assert len(pairs) == 2
        assert all(identifier == 100 for identifier, _ in pairs)


class TestLRUEviction:
    def test_capacity_enforced(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=3))
        for i in range(5):
            store.store(i, desc(i, i + 10))
        assert store.partition_count == 3

    def test_recently_matched_entry_survives(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10))
        store.store(2, desc(100, 110))
        # Touch the first entry so the second becomes the LRU victim.
        store.best_match_in_bucket(1, IntRange(0, 10), "R", "value", score)
        store.store(3, desc(200, 210))
        remaining = {entry.descriptor for _, entry in store.entries()}
        assert desc(0, 10) in remaining
        assert desc(100, 110) not in remaining

    def test_invalid_capacity(self):
        with pytest.raises(StorageError):
            LRUEviction(max_partitions=0)

    def test_replica_evicted_before_primary(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10), primary=True)
        store.store(2, desc(100, 110), primary=False)
        # Make the primary the LRU entry; the replica must still go first.
        store.best_match_in_bucket(2, IntRange(100, 110), "R", "value", score)
        store.store(3, desc(200, 210), primary=True)
        remaining = {entry.descriptor for _, entry in store.entries()}
        assert desc(0, 10) in remaining
        assert desc(100, 110) not in remaining

    def test_replica_inserts_respect_capacity(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        for i in range(5):
            store.store(i, desc(i * 20, i * 20 + 10), primary=False)
        assert store.partition_count == 2
        assert store.replica_count == 2

    def test_oldest_replica_evicted_among_replicas(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10), primary=False)
        store.store(2, desc(100, 110), primary=False)
        store.store(3, desc(200, 210), primary=False)
        remaining = {entry.descriptor for _, entry in store.entries()}
        assert desc(0, 10) not in remaining


class TestPrimaryReplicaRoles:
    def test_store_marks_roles(self):
        store = PeerStore(1)
        store.store(1, desc(0, 10), primary=True)
        store.store(2, desc(100, 110), primary=False)
        assert store.primary_count == 1
        assert store.replica_count == 1

    def test_readd_as_primary_promotes(self):
        store = PeerStore(1)
        store.store(1, desc(0, 10), primary=False)
        assert not store.store(1, desc(0, 10), primary=True)  # not new
        (_, entry), = store.entries()
        assert entry.primary

    def test_readd_as_replica_does_not_demote(self):
        store = PeerStore(1)
        store.store(1, desc(0, 10), primary=True)
        store.store(1, desc(0, 10), primary=False)
        (_, entry), = store.entries()
        assert entry.primary


class TestUpgradeRefreshesRecency:
    def test_readd_refreshes_access_clock(self):
        # Regression: re-adding an existing descriptor upgraded the entry
        # in place but kept the stale access_clock, leaving the re-stored
        # entry first in line for LRU eviction.
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10))          # clock 1
        store.store(2, desc(100, 110))       # clock 2
        store.store(1, desc(0, 10))          # re-add: refresh to clock 3
        store.store(3, desc(200, 210))       # forces one eviction
        remaining = {entry.descriptor for _, entry in store.entries()}
        assert desc(0, 10) in remaining
        assert desc(100, 110) not in remaining

    def test_readd_with_rows_keeps_upgraded_entry_warm(self):
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10))
        store.store(2, desc(100, 110))
        partition = Partition(descriptor=desc(0, 10), rows=((1,),))
        store.store(1, desc(0, 10), partition=partition)
        store.store(3, desc(200, 210))
        survivors = {e.descriptor: e for _, e in store.entries()}
        assert desc(0, 10) in survivors
        assert survivors[desc(0, 10)].partition is partition

    def test_readd_never_rewinds_clock(self):
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 10), access_clock=9))
        bucket.add(StoredEntry(desc(0, 10), access_clock=4))
        assert bucket.get(desc(0, 10)).access_clock == 9


class TestBestMatchTieBreak:
    def test_exact_beats_equal_scoring_rival_regardless_of_order(self):
        # A constant scorer forces a genuine tie; the exact descriptor
        # must win whether it was inserted before or after its rival.
        constant = lambda q, d: 0.5  # noqa: E731
        query = IntRange(10, 20)
        first = Bucket(7)
        first.add(StoredEntry(desc(10, 20)))
        first.add(StoredEntry(desc(0, 100)))
        assert first.best_match(query, "R", "value", constant)[0].descriptor.range == query
        second = Bucket(7)
        second.add(StoredEntry(desc(0, 100)))
        second.add(StoredEntry(desc(10, 20)))
        assert second.best_match(query, "R", "value", constant)[0].descriptor.range == query

    def test_tie_between_inexact_entries_keeps_first_seen(self):
        constant = lambda q, d: 0.5  # noqa: E731
        bucket = Bucket(7)
        bucket.add(StoredEntry(desc(0, 50)))
        bucket.add(StoredEntry(desc(50, 100)))
        best = bucket.best_match(IntRange(20, 30), "R", "value", constant)
        assert best[0].descriptor == desc(0, 50)


    def test_exact_wins_ties_across_buckets_regardless_of_order(self):
        # best_match_local applies the same rule between buckets as
        # Bucket.best_match does within one.
        constant = lambda q, d: 0.5  # noqa: E731
        query = IntRange(10, 20)
        for exact_bucket, rival_bucket in ((1, 2), (2, 1)):
            store = PeerStore(1)
            store.store(rival_bucket, desc(0, 100))
            store.store(exact_bucket, desc(10, 20))
            found = store.best_match_local(query, "R", "value", constant)
            assert found[0].descriptor.range == query

    def test_tie_across_buckets_keeps_first_bucket(self):
        constant = lambda q, d: 0.5  # noqa: E731
        store = PeerStore(1)
        store.store(1, desc(0, 50))
        store.store(2, desc(50, 100))
        found = store.best_match_local(IntRange(20, 30), "R", "value", constant)
        assert found[0].descriptor == desc(0, 50)
        # Two copies of the exact range tie too: the first bucket's stays.
        store.store(1, desc(20, 30))
        store.store(2, desc(20, 30))
        found = store.best_match_local(IntRange(20, 30), "R", "value", constant)
        assert found[0] is store.bucket(1).get(desc(20, 30))


class TestEvictionAfterPromotion:
    def test_promoted_replica_outranks_newer_replica(self):
        # A replica promoted to primary must gain the primary's eviction
        # protection even though its access_clock is the oldest.
        store = PeerStore(1, eviction=LRUEviction(max_partitions=2))
        store.store(1, desc(0, 10), primary=False)
        store.store(1, desc(0, 10), primary=True)   # promotion in place
        store.store(2, desc(100, 110), primary=False)
        store.store(3, desc(200, 210), primary=False)
        survivors = {e.descriptor: e for _, e in store.entries()}
        assert desc(0, 10) in survivors
        assert survivors[desc(0, 10)].primary


# ----------------------------------------------------------------------
# Columnar match path vs. the linear scan it replaced
# ----------------------------------------------------------------------


def linear_scan(bucket, query, relation, attribute, score):
    """``Bucket.best_match`` as it was before the columnar side-index,
    kept verbatim as the reference the vectorised path must reproduce."""
    best = None
    for entry in bucket._entries.values():
        descriptor = entry.descriptor
        if descriptor.relation != relation or descriptor.attribute != attribute:
            continue
        value = score(query, descriptor)
        if best is None or value > best[1] or (
            value == best[1] and descriptor.range == query
        ):
            best = (entry, value)
    return best


SCORERS = (
    JaccardMatcher().score,
    ContainmentMatcher().score,
    lambda q, d: 0.5,
    lambda q, d: ((d.range.start * 7 + q.end) % 5) / 4.0,
)
GROUPS = (("R", "value"), ("R", "age"), ("S", "value"))


def assert_matches_linear_scan(bucket: Bucket, queries) -> None:
    for query in queries:
        for relation, attribute in GROUPS:
            for scorer in SCORERS:
                expected = linear_scan(bucket, query, relation, attribute, scorer)
                found = bucket.best_match(query, relation, attribute, scorer)
                if expected is None:
                    assert found is None
                    continue
                assert found[0] is expected[0]
                assert found[1] == expected[1]
                assert type(found[1]) is float


def assert_index_mirrors_entries(bucket: Bucket) -> None:
    """The side-index invariant: it exists exactly from the break-even
    size up, and each group's columns are the bucket's entries of that
    group, in insertion order."""
    if len(bucket) < COLUMNAR_MIN_ENTRIES:
        assert bucket._index is None
        return
    grouped: dict = {}
    for entry in bucket:
        key = (entry.descriptor.relation, entry.descriptor.attribute)
        grouped.setdefault(key, []).append(entry)
    assert set(bucket._index) == set(grouped)
    for key, entries in grouped.items():
        columns = bucket._index[key]
        assert len(columns.entries) == len(entries)
        assert all(a is b for a, b in zip(columns.entries, entries))
        assert list(columns.starts) == [e.descriptor.range.start for e in entries]
        assert list(columns.ends) == [e.descriptor.range.end for e in entries]


# Near-identical ranges over a small domain, mostly one group: what an
# LSH bucket holds, and enough collisions to exercise re-adds.
descriptors = st.builds(
    lambda group, start, length: PartitionDescriptor(
        group[0], group[1], IntRange(start, start + length)
    ),
    st.sampled_from(GROUPS + (GROUPS[0],) * 3),
    st.integers(0, 12),
    st.integers(0, 8),
)
stores = st.tuples(st.just("store"), descriptors, st.booleans(), st.booleans())
operations = st.one_of(
    stores,
    stores,
    stores,
    st.tuples(st.just("replay_store"), descriptors, st.booleans(), st.integers(0, 99)),
    st.tuples(st.sampled_from(("remove", "replay_remove", "match")), descriptors),
    st.tuples(st.just("set_primary"), descriptors, st.booleans()),
)


class TestColumnarMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        # Two buckets, one of them three times as busy; long enough runs
        # that most examples push a group past the break-even size.
        ops=st.lists(
            st.tuples(st.sampled_from((1, 1, 1, 2)), operations),
            min_size=25,
            max_size=70,
        ),
        capacity=st.none() | st.integers(COLUMNAR_MIN_ENTRIES, 3 * COLUMNAR_MIN_ENTRIES),
    )
    def test_best_match_equals_linear_scan(self, ops, capacity):
        eviction = LRUEviction(capacity) if capacity is not None else None
        store = PeerStore(1, eviction=eviction)
        for identifier, (kind, descriptor, *args) in ops:
            if kind == "store":
                with_rows, primary = args
                rows = Partition(descriptor, rows=((1,),)) if with_rows else None
                store.store(identifier, descriptor, rows, primary=primary)
            elif kind == "replay_store":
                primary, clock = args
                store.replay([{
                    "op": "store", "identifier": identifier,
                    "descriptor": descriptor, "partition": None,
                    "primary": primary, "access_clock": clock,
                }])
            elif kind == "remove":
                store.remove(identifier, descriptor)
            elif kind == "replay_remove":
                store.replay([{
                    "op": "remove", "identifier": identifier,
                    "descriptor": descriptor,
                }])
            elif kind == "set_primary":
                store.set_primary(identifier, descriptor, args[0])
            else:  # a served match touches the LRU clock of its winner
                bucket = store.bucket(identifier)
                asked = (
                    descriptor.range, descriptor.relation, descriptor.attribute,
                    SCORERS[0],
                )
                expected = None if bucket is None else linear_scan(bucket, *asked)
                found = store.best_match_in_bucket(identifier, *asked)
                assert (found is None) == (expected is None)
                assert found is None or (
                    found[0] is expected[0] and found[1] == expected[1]
                )
            for bucket in map(store.bucket, store.identifiers()):
                assert_index_mirrors_entries(bucket)
        # Queries equal to, inside, overlapping and disjoint from what is
        # stored (the domain above ends at 20).
        queries = [
            IntRange(0, 8), IntRange(3, 5), IntRange(4, 4), IntRange(6, 15),
            IntRange(0, 40), IntRange(25, 30),
        ] + [d.range for _, (_, d, *_) in ops[:6]]
        for bucket in map(store.bucket, store.identifiers()):
            assert_matches_linear_scan(bucket, queries)

    def test_large_overfull_bucket(self):
        bucket = Bucket(7)
        for i in range(400):
            bucket.add(StoredEntry(desc(i % 37, i % 37 + 40 + i // 37)))
        assert_index_mirrors_entries(bucket)
        assert_matches_linear_scan(
            bucket, [IntRange(10, 55), IntRange(0, 0), IntRange(500, 600)]
        )

    def test_rounding_tie_on_the_vectorised_path_goes_to_the_exact_range(self):
        # On very long ranges the containment matcher's 1e-3 * jaccard
        # term rounds away, so a one-wider superset ties with the exact
        # range; argmax alone would return the superset stored first.
        query = IntRange(0, 2**49)
        scorer = ContainmentMatcher().score
        superset = desc(0, 2**49 + 1)
        assert scorer(query, superset) == scorer(query, desc(0, 2**49))
        bucket = Bucket(7)
        bucket.add(StoredEntry(superset))
        for i in range(2 * COLUMNAR_MIN_ENTRIES):
            bucket.add(StoredEntry(desc(i, 2**49 - i)))
        assert bucket.best_match(query, "R", "value", scorer)[0].descriptor.range == query
        assert_matches_linear_scan(bucket, [query, IntRange(0, 2**49 + 1)])

    def test_lru_eviction_out_of_an_indexed_bucket(self):
        capacity = 2 * COLUMNAR_MIN_ENTRIES
        store = PeerStore(1, eviction=LRUEviction(capacity))
        scorer = JaccardMatcher().score
        for i in range(3 * capacity):
            store.store(7, desc(i, i + 30))
            # Touch the oldest survivor so eviction takes from the middle
            # of the columns, not only their head.
            oldest = next(iter(store.bucket(7))).descriptor.range
            store.best_match_in_bucket(7, oldest, "R", "value", scorer)
            assert_index_mirrors_entries(store.bucket(7))
        assert len(store.bucket(7)) == capacity
        assert_matches_linear_scan(
            store.bucket(7), [IntRange(0, 30), IntRange(40, 70), IntRange(20, 60)]
        )

    def test_index_dropped_below_break_even(self):
        bucket = Bucket(7)
        for i in range(COLUMNAR_MIN_ENTRIES):
            bucket.add(StoredEntry(desc(i, i + 10)))
        assert bucket._index is not None
        bucket.remove(desc(0, 10))
        assert bucket._index is None
        assert_matches_linear_scan(bucket, [IntRange(1, 11), IntRange(3, 9)])

    def test_subclass_overriding_score_is_not_vectorised(self):
        class Inverted(JaccardMatcher):
            def score(self, query, candidate):
                return -super().score(query, candidate)

        bucket = Bucket(7)
        for i in range(2 * COLUMNAR_MIN_ENTRIES):
            bucket.add(StoredEntry(desc(i, i + 10)))
        scorer = Inverted().score
        found = bucket.best_match(IntRange(0, 10), "R", "value", scorer)
        expected = linear_scan(bucket, IntRange(0, 10), "R", "value", scorer)
        assert found[0] is expected[0] and found[1] == expected[1]
        assert found[0].descriptor != desc(0, 10)


class TestColumnBounds:
    """Bounds the int64/float64 columns cannot hold exactly keep their
    group on the scalar loop instead of wrapping or rounding."""

    WIDE = (
        IntRange(-(2**70), -(2**70) + 5),      # outside int64 altogether
        IntRange(2**63 - 9, 2**63 + 9),        # straddles the int64 edge
        IntRange(2**53 + 1, 2**53 + 4),        # int64 yes, float64-exact no
        IntRange(COLUMN_BOUND, COLUMN_BOUND + 1),
    )

    def filled(self) -> Bucket:
        bucket = Bucket(7)
        for i in range(2 * COLUMNAR_MIN_ENTRIES):
            bucket.add(StoredEntry(desc(i, i + 10)))
        return bucket

    @pytest.mark.parametrize("wide", WIDE)
    def test_wide_stored_range_parks_group_on_scalar_path(self, wide):
        bucket = self.filled()
        assert bucket.add(StoredEntry(PartitionDescriptor("R", "value", wide)))
        bucket.add(StoredEntry(desc(3, 9)))
        assert bucket._index[("R", "value")].starts is None
        assert_matches_linear_scan(bucket, [wide, IntRange(3, 9), IntRange(0, 2**62)])
        # Removing the offender lets the rebuilt group vectorise again.
        bucket.remove(PartitionDescriptor("R", "value", wide))
        assert bucket._index[("R", "value")].starts is not None
        assert_matches_linear_scan(bucket, [wide, IntRange(3, 9)])

    @pytest.mark.parametrize("wide", WIDE)
    def test_wide_query_against_indexed_bucket(self, wide):
        bucket = self.filled()
        assert_matches_linear_scan(bucket, [wide, IntRange(-(2**61), 2**61)])

    def test_ranges_at_the_bound_stay_exact(self):
        bucket = Bucket(7)
        for i in range(2 * COLUMNAR_MIN_ENTRIES):
            bucket.add(StoredEntry(desc(-COLUMN_BOUND + i, COLUMN_BOUND - 3 * i)))
        assert bucket._index[("R", "value")].starts is not None
        assert_matches_linear_scan(
            bucket,
            [IntRange(-COLUMN_BOUND, COLUMN_BOUND), IntRange(-COLUMN_BOUND + 1, 7)],
        )
