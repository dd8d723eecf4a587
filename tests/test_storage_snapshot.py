"""Tests for system snapshots (save / restore)."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import StorageError
from repro.ranges.interval import IntRange
from repro.storage.snapshot import (
    load_system,
    restore_system,
    save_system,
    snapshot_system,
)
from repro.workloads.generators import UniformRangeWorkload


def warmed_system() -> RangeSelectionSystem:
    system = RangeSelectionSystem(SystemConfig(n_peers=30, seed=71))
    for query in UniformRangeWorkload(system.config.domain, 120, seed=72):
        system.query(query)
    return system


class TestRoundTrip:
    def test_placements_survive(self):
        original = warmed_system()
        restored = restore_system(snapshot_system(original))
        assert restored.total_placements() == original.total_placements()
        assert restored.unique_partitions() == original.unique_partitions()

    def test_load_distribution_identical(self):
        original = warmed_system()
        restored = restore_system(snapshot_system(original))
        assert restored.load_distribution() == original.load_distribution()

    def test_restored_system_answers_like_original(self):
        original = warmed_system()
        restored = restore_system(snapshot_system(original))
        probes = UniformRangeWorkload(original.config.domain, 60, seed=73)
        for query in probes:
            a = original.query(query)
            b = restored.query(query)
            assert (a.similarity, a.recall, a.exact) == (
                b.similarity,
                b.recall,
                b.exact,
            )

    def test_file_round_trip(self, tmp_path):
        original = warmed_system()
        path = tmp_path / "snapshot.json"
        save_system(original, path)
        restored = load_system(path)
        assert restored.total_placements() == original.total_placements()

    def test_rows_preserved(self, tmp_path):
        from repro.db.partition import Partition, PartitionDescriptor

        system = RangeSelectionSystem(SystemConfig(n_peers=10, seed=74))
        descriptor = PartitionDescriptor("R", "value", IntRange(5, 9))
        partition = Partition(descriptor=descriptor, rows=((5, "a"), (7, "b")))
        system.store_partition(
            IntRange(5, 9), "R", "value", partition=partition
        )
        path = tmp_path / "rows.json"
        save_system(system, path)
        restored = load_system(path)
        stored_rows = [
            entry.partition.rows
            for store in restored.stores.values()
            for _, entry in store.entries()
            if entry.partition is not None
        ]
        assert ((5, "a"), (7, "b")) in stored_rows

    def test_placement_invariant_after_restore(self):
        restored = restore_system(snapshot_system(warmed_system()))
        restored.check_placement_invariant()


class TestValidation:
    def test_unknown_format_rejected(self):
        with pytest.raises(StorageError):
            restore_system({"format": 99, "config": {}, "entries": []})

    def test_config_round_trips_exactly(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=12, seed=75, matcher="containment", padding=0.2)
        )
        restored = restore_system(snapshot_system(system))
        assert restored.config == system.config

    def test_a_field_the_config_has_dropped_is_ignored(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=12, seed=76))
        snapshot = snapshot_system(system)
        snapshot["config"]["retired_option"] = True
        assert restore_system(snapshot).config == system.config
