"""Tests for the range-selection system (the paper's query procedure)."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import ConfigError
from repro.ranges.interval import IntRange


def make_system(**overrides) -> RangeSelectionSystem:
    defaults = dict(n_peers=30, seed=123)
    defaults.update(overrides)
    return RangeSelectionSystem(SystemConfig(**defaults))


class TestConfig:
    def test_defaults_match_paper(self):
        config = SystemConfig()
        assert (config.l, config.k) == (5, 20)
        assert config.id_bits == 32
        assert config.domain.low == 0 and config.domain.high == 1000

    def test_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_peers=0)
        with pytest.raises(ConfigError):
            SystemConfig(l=0)
        with pytest.raises(ConfigError):
            SystemConfig(padding=-0.1)
        with pytest.raises(ConfigError):
            SystemConfig(id_bits=0)
        with pytest.raises(ConfigError):
            SystemConfig(placement="middle")
        with pytest.raises(ConfigError):
            SystemConfig(max_partitions_per_peer=0)

    def test_describe(self):
        text = SystemConfig(padding=0.2).describe()
        assert "pad=20%" in text


class TestColdAndWarmQueries:
    def test_cold_query_misses_and_stores(self):
        system = make_system()
        result = system.query(IntRange(30, 50))
        assert result.matched is None
        assert result.stored
        assert result.similarity == 0.0 and result.recall == 0.0
        assert system.total_placements() == 5  # one per group

    def test_identical_repeat_is_exact(self):
        system = make_system()
        system.query(IntRange(30, 50))
        repeat = system.query(IntRange(30, 50))
        assert repeat.exact
        assert repeat.similarity == 1.0 and repeat.recall == 1.0
        assert not repeat.stored  # exact matches are not re-stored
        assert system.unique_partitions() == 1

    def test_similar_query_finds_partition(self):
        system = make_system()
        system.query(IntRange(30, 50))
        similar = system.query(IntRange(30, 49))
        assert similar.matched is not None
        assert similar.matched.range == IntRange(30, 50)
        assert similar.recall == 1.0
        assert not similar.exact

    def test_near_miss_still_stores_its_own_partition(self):
        system = make_system()
        system.query(IntRange(30, 50))
        system.query(IntRange(30, 49))
        # Both ranges are now stored (the second was inexact).
        assert system.unique_partitions() == 2

    def test_store_on_miss_disabled(self):
        system = make_system(store_on_miss=False)
        result = system.query(IntRange(30, 50))
        assert result.stored is False
        assert system.total_placements() == 0


class TestPadding:
    def test_config_padding_expands_hashed_query(self):
        system = make_system(padding=0.2)
        result = system.query(IntRange(100, 200))
        assert result.hashed_query == IntRange(100, 200).pad(
            0.2, lower_bound=0, upper_bound=1000
        )
        # The *padded* range is what gets stored.
        stored = {e.descriptor.range for s in system.stores.values()
                  for _, e in s.entries()}
        assert result.hashed_query in stored

    def test_per_query_padding_override(self):
        system = make_system()
        result = system.query(IntRange(100, 200), padding=0.5)
        assert result.hashed_query == IntRange(100, 200).pad(
            0.5, lower_bound=0, upper_bound=1000
        )

    def test_padded_partition_fully_answers_original(self):
        system = make_system(padding=0.2, matcher="containment")
        system.query(IntRange(100, 200))
        # Identical original range: padded cache entry contains it fully.
        again = system.query(IntRange(100, 200))
        assert again.recall == 1.0

    def test_padding_clamped_at_domain_edges(self):
        system = make_system(padding=0.5)
        result = system.query(IntRange(0, 100))
        assert result.hashed_query.start == 0
        assert result.hashed_query.end <= 1000


class TestRouting:
    def test_hops_counted(self):
        system = make_system(n_peers=100)
        result = system.query(IntRange(30, 50))
        assert result.overlay_hops > 0
        assert 1 <= result.peers_contacted <= 5

    def test_all_owners_agree_with_ring(self):
        system = make_system(n_peers=100)
        located = system.locate(IntRange(10, 40))
        for identifier, owner in zip(located.identifiers, located.answered_by):
            assert owner == system.ring.successor_of(system.place_identifier(identifier))

    def test_direct_placement_mode(self):
        system = make_system(placement="direct")
        located = system.locate(IntRange(10, 40))
        for identifier, owner in zip(located.identifiers, located.answered_by):
            assert owner == system.ring.successor_of(identifier)

    def test_placement_modes_share_bucket_semantics(self):
        """Under both placements, a repeat query is an exact hit."""
        for placement in ("rehash", "direct"):
            system = make_system(placement=placement)
            system.query(IntRange(200, 300))
            assert system.query(IntRange(200, 300)).exact


class TestMatchers:
    def test_containment_matcher_prefers_containing_partition(self):
        system = make_system(matcher="containment")
        # Store a broad partition and a close-but-clipping partition by
        # querying them (both will be cached).
        system.query(IntRange(95, 210))
        system.query(IntRange(100, 190))
        result = system.query(IntRange(100, 200))
        if result.matched is not None and result.matched.range == IntRange(95, 210):
            assert result.recall == 1.0

    def test_local_index_finds_matches_in_single_peer_system(self):
        system = make_system(n_peers=1, local_index=True, matcher="containment")
        system.query(IntRange(100, 200))
        hit = system.query(IntRange(120, 180))
        # One peer holds everything; the local index must see the stored
        # partition even though the identifiers differ.
        assert hit.matched is not None
        assert hit.recall == 1.0


class TestCountersAndIntrospection:
    def test_counters_track_queries(self):
        system = make_system()
        system.query(IntRange(1, 10))
        system.query(IntRange(1, 10))
        counters = system.counters
        assert counters.queries == 2
        assert counters.exact_hits == 1
        assert counters.misses == 1
        assert counters.stores == 1

    def test_load_distribution_sums_to_placements(self):
        system = make_system()
        for start in range(0, 500, 50):
            system.query(IntRange(start, start + 30))
        assert sum(system.load_distribution()) == system.total_placements()

    def test_exact_store_and_lookup(self):
        from repro.db.partition import Partition, PartitionDescriptor

        system = make_system()
        descriptor = PartitionDescriptor("D", "diagnosis='Glaucoma'", IntRange(0, 0))
        partition = Partition(descriptor=descriptor, rows=((1, "Glaucoma"),))
        assert system.exact_store(123456, descriptor, partition)
        fetched, hops = system.exact_lookup(123456)
        assert fetched is not None and fetched.rows == ((1, "Glaucoma"),)
        assert hops >= 0

    def test_exact_lookup_miss(self):
        system = make_system()
        fetched, _hops = system.exact_lookup(999)
        assert fetched is None
