"""Tests for the overlay router abstraction and overlay-backed systems."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.overlays import CanRouter, ChordRouter, build_overlay
from repro.core.system import RangeSelectionSystem
from repro.errors import ConfigError
from repro.metrics.collector import QueryLog
from repro.ranges.interval import IntRange
from repro.workloads.generators import UniformRangeWorkload


class TestBuildOverlay:
    def test_chord_router(self):
        router = build_overlay("chord", 50)
        assert isinstance(router, ChordRouter)
        assert len(router.node_ids) == 50

    def test_can_router(self):
        router = build_overlay("can", 50)
        assert isinstance(router, CanRouter)
        assert len(router.node_ids) == 50

    def test_unknown_overlay(self):
        with pytest.raises(ConfigError):
            build_overlay("pastry", 50)


class TestRouterContract:
    @pytest.mark.parametrize("kind", ["chord", "can"])
    def test_lookup_owner_consistency(self, kind, rng):
        router = build_overlay(kind, 40, seed=3)
        ids = router.node_ids
        for _ in range(100):
            key = int(rng.integers(0, 2**32))
            start = ids[int(rng.integers(len(ids)))]
            owner, hops = router.lookup(key, start_id=start)
            assert owner == router.owner_of(key)
            assert hops >= 0

    @pytest.mark.parametrize("kind", ["chord", "can"])
    def test_ownership_deterministic(self, kind):
        a = build_overlay(kind, 40, seed=3)
        b = build_overlay(kind, 40, seed=3)
        for key in (0, 123456, 2**31, 2**32 - 1):
            assert a.owner_of(key) == b.owner_of(key)


class TestOverlayIndependence:
    def test_match_results_identical_across_overlays(self):
        """Identifiers and buckets do not depend on the overlay, so two
        systems differing only in DHT must make identical match decisions."""
        logs = {}
        for kind in ("chord", "can"):
            system = RangeSelectionSystem(
                SystemConfig(n_peers=40, seed=19, overlay=kind)
            )
            workload = UniformRangeWorkload(system.config.domain, 400, seed=5)
            log = QueryLog()
            for query in workload:
                log.add(system.query(query))
            logs[kind] = [(r.similarity, r.recall, r.exact) for r in log.results]
        assert logs["chord"] == logs["can"]

    def test_can_system_basic_flow(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=30, seed=20, overlay="can", can_dimensions=3)
        )
        system.query(IntRange(10, 60))
        assert system.query(IntRange(10, 60)).exact

    def test_churn_helpers_chord_only(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=10, seed=21, overlay="can")
        )
        with pytest.raises(ConfigError):
            system.join_peer("x")
        with pytest.raises(ConfigError):
            system.leave_peer(system.router.node_ids[0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(overlay="kademlia")
        with pytest.raises(ConfigError):
            SystemConfig(can_dimensions=0)
