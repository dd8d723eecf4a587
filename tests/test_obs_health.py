"""Tests for the ring-health subsystem: sampler, auditor, skew analytics."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.net.latency import ConstantLatency
from repro.obs import (
    RingAuditor,
    TelemetrySampler,
    gini,
    health_check,
    hot_identifiers,
    max_mean_ratio,
    skew_stats,
)
from repro.obs.health import load_histogram
from repro.sim.query import AsyncQueryEngine
from repro.workloads.generators import UniformRangeWorkload


def _warm(system: RangeSelectionSystem, queries: int, seed: int = 13) -> None:
    for query in UniformRangeWorkload(
        system.config.domain, queries, seed=seed
    ).ranges():
        system.query(query)


class TestAuditAcceptance:
    """The ISSUE acceptance scenario: 200 peers, r=3, crash 20%, repair."""

    @pytest.fixture(scope="class")
    def system(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=200, replicas=3, seed=7)
        )
        _warm(system, 120)
        return system

    def test_healthy_system_audits_clean(self, system):
        report = health_check(system)
        assert report.ok
        assert report.audit.findings == []
        assert report.audit.nodes_checked == 200
        assert report.audit.entries_checked == system.total_placements()

    def test_crash_then_repair_round_trip(self, system):
        # Crash every 5th peer (20%): spread along the ring so no
        # identifier loses all three chain replicas at once.
        node_ids = system.router.node_ids
        doomed = node_ids[::5]
        assert len(doomed) == 40
        for nid in doomed:
            system.crash_peer(nid)
        try:
            damaged = RingAuditor(system).audit()
            assert not damaged.ok
            assert damaged.crashed_peers == 40
            deficits = damaged.findings_for("replica-deficit")
            assert deficits
            assert all(f.severity == "warning" for f in deficits)
            # Spread crashes with r=3 lose reachability, never all copies.
            assert damaged.findings_for("replica-loss") == []
            # Crashes are transport-level: ring structure stays intact.
            assert not any(
                f.check.startswith("chord.") for f in damaged.findings
            )
            # The deficit count matches the repair plan exactly.
            n_deficit_copies = len(
                system.repair_plan(system.network.is_alive)[0]
            )
            assert n_deficit_copies > 0

            system.repair_replicas()
            healed = RingAuditor(system).audit()
            assert healed.ok
            assert healed.findings == []
        finally:
            for nid in doomed:
                system.recover_peer(nid)
            system.rebalance()


class TestAuditorDetectsCorruption:
    def test_tampered_successor_pointer_is_critical(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=32, seed=5))
        ring = system.ring
        victim = ring.node_ids[0]
        ring.node(victim).successor_id = victim  # self-loop: wrong successor
        report = RingAuditor(system).audit()
        assert not report.ok
        assert any(f.check.startswith("chord.") for f in report.findings)
        assert all(
            f.severity == "critical"
            for f in report.findings
            if f.check.startswith("chord.")
        )

    def test_misplaced_copy_is_critical(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=32, seed=5))
        _warm(system, 10)
        identifier, entry = next(iter(system.stores.values())).entries().__next__()
        owners = set(system.replica_owners(identifier))
        stray = next(
            nid for nid in reversed(system.router.node_ids) if nid not in owners
        )
        system.stores[stray].store(
            identifier, entry.descriptor, entry.partition, primary=False
        )
        report = RingAuditor(system).audit()
        assert any(f.check == "replica-placement" for f in report.findings)
        assert not report.ok

    def test_copy_findings_come_in_store_walk_order(self):
        # Every flag flipped: each copy is graded, and the report lists
        # them store by store, entry by entry, as the walk meets them
        # (report() sorts stably and keeps the first 20 of a kind).
        system = RangeSelectionSystem(SystemConfig(n_peers=16, replicas=2, seed=5))
        _warm(system, 5)
        walked = []
        for store in system.stores.values():
            for identifier, entry in store.entries():
                entry.primary = not entry.primary
                walked.append(f"copy at {store.peer_id} has primary={entry.primary}")
        report = RingAuditor(system).audit()
        flags = [f.message.split(",")[0] for f in report.findings_for("primary-flag")]
        assert len(walked) > 20
        assert flags == walked

    def test_lru_clock_violation_is_warning(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=5))
        _warm(system, 5)
        store = next(s for s in system.stores.values() if s.partition_count)
        _, entry = next(store.entries())
        entry.access_clock = store.clock + 100
        report = RingAuditor(system).audit()
        findings = report.findings_for("lru-clock")
        assert findings and findings[0].severity == "warning"

    def test_can_overlay_audits_clean_and_detects_asymmetry(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=24, overlay="can", seed=5)
        )
        _warm(system, 10)
        assert health_check(system).ok
        overlay = system.router.overlay
        node = overlay.node(overlay.node_ids[0])
        other = next(iter(node.neighbor_ids))
        overlay.node(other).neighbor_ids.discard(node.node_id)
        report = RingAuditor(system).audit()
        assert any(f.check == "can.neighbor-symmetry" for f in report.findings)

    def test_report_and_dict_render(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=5))
        _warm(system, 5)
        report = health_check(system)
        text = report.report()
        assert "Health: OK" in text
        assert "Load skew" in text
        doc = report.to_dict()
        assert doc["ok"] is True
        assert doc["n_peers"] == 16
        assert len(doc["loads"]) == 16
        assert doc["skew"]["gini"] == pytest.approx(report.skew.gini)


class TestSamplerNoDrift:
    """The sampler's final sample must equal a direct bucket census."""

    def test_event_driven_sampling_monotone_and_exact(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=64, replicas=3, seed=11)
        )
        _warm(system, 30)
        engine = AsyncQueryEngine(system, seed=11)
        sampler = TelemetrySampler(system, sim=engine.sim, interval_ms=500.0)
        sampler.sample_once()
        sampler.start()
        for query in UniformRangeWorkload(
            system.config.domain, 20, seed=17
        ).ranges():
            engine.run(query)
        sampler.stop()
        sampler.sample_once()
        assert sampler.samples_taken > 2

        partitions = system.metrics.timeseries("health.node.partitions")
        census = {
            nid: system.stores[nid].partition_count
            for nid in system.router.node_ids
        }
        for nid, expected in census.items():
            points = partitions.points(node=nid)
            assert len(points) == sampler.samples_taken
            times = [t for t, _ in points]
            assert times == sorted(times)  # monotone virtual time
            assert points[-1][1] == expected  # no drift vs direct census
        totals = system.metrics.timeseries("health.partitions_total")
        assert totals.last()[1] == sum(census.values())
        pending = system.metrics.timeseries("health.sim.pending_events")
        assert len(pending.points()) == sampler.samples_taken

    def test_snapshot_on_demand_uses_wire_clock(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=3))
        system.network.latency = ConstantLatency(5.0)
        sampler = TelemetrySampler(system)
        t0 = sampler.sample_once()
        _warm(system, 5)
        t1 = sampler.sample_once()
        assert t1 > t0  # wire time accumulated between snapshots

    def test_periodic_sampling_requires_simulator(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=8, seed=3))
        with pytest.raises(ValueError):
            TelemetrySampler(system).start()

    def test_degraded_and_crashed_states(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=32, replicas=3, seed=11)
        )
        _warm(system, 20)
        victim = system.router.node_ids[0]
        system.crash_peer(victim)
        sampler = TelemetrySampler(system)
        sampler.sample_once()
        state = system.metrics.timeseries("health.node.state")
        assert state.last(node=victim)[1] == 2  # crashed
        deficit = system.metrics.timeseries("health.replica_deficit")
        assert deficit.last()[1] > 0
        # Some alive successor is now missing copies: degraded.
        states = [state.last(node=nid)[1] for nid in system.router.node_ids]
        assert 1 in states
        system.recover_peer(victim)


class TestSkewAnalytics:
    def test_gini_known_values(self):
        assert gini([]) == 0.0
        assert gini([0, 0, 0]) == 0.0
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)
        assert gini([0, 0, 0, 4]) == pytest.approx(0.75)

    def test_max_mean_ratio(self):
        assert max_mean_ratio([]) == 0.0
        assert max_mean_ratio([2, 2, 2]) == pytest.approx(1.0)
        assert max_mean_ratio([1, 1, 4]) == pytest.approx(2.0)

    def test_skew_stats_matches_direct_computation(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        stats = skew_stats(values)
        assert stats.count == 8
        assert stats.total == sum(values)
        assert stats.mean == pytest.approx(sum(values) / 8)
        assert stats.minimum == 1 and stats.maximum == 9
        assert stats.max_mean == pytest.approx(9 / (sum(values) / 8))
        assert stats.gini == pytest.approx(gini(values))

    def test_load_histogram_covers_all_values(self):
        values = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        bins = load_histogram(values, bins=5)
        assert len(bins) == 5
        assert sum(count for _, _, count in bins) == len(values)
        flat = load_histogram([7, 7, 7])
        assert flat == [(7.0, 7.0, 3)]
        assert load_histogram([]) == []

    def test_uniform_workload_reproduces_fig11_shape(self):
        """Rehash placement keeps skew in the Fig 11 load-balance band."""
        system = RangeSelectionSystem(SystemConfig(n_peers=100, seed=2003))
        _warm(system, 200)
        loads = system.load_distribution()
        stats = skew_stats(loads)
        assert stats.total == system.total_placements()
        # Fig 11's band: a visible spread but no pathological hot spot
        # (the experiment suite bounds p99 < 25x mean; max/mean is the
        # stricter statistic and stays well under 10x under rehash).
        assert 1.0 < stats.max_mean < 10.0
        assert 0.0 < stats.gini < 0.6

    def test_hot_identifiers_ranked(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=32, replicas=3, seed=11)
        )
        _warm(system, 20)
        hot = hot_identifiers(system, top_n=3)
        assert len(hot) == 3
        counts = [count for _, count in hot]
        assert counts == sorted(counts, reverse=True)
        # Every hot identifier's count matches a direct census.
        for identifier, count in hot:
            direct = sum(
                1
                for store in system.stores.values()
                for ident, _ in store.entries()
                if ident == identifier
            )
            assert direct == count


class TestObservationIsPassive:
    """Sampling + auditing must not change system behaviour at all."""

    def test_observed_system_byte_identical(self):
        seed_cfg = SystemConfig(n_peers=40, replicas=3, seed=9)
        plain = RangeSelectionSystem(seed_cfg)
        observed = RangeSelectionSystem(seed_cfg)
        sampler = TelemetrySampler(observed)
        queries = list(
            UniformRangeWorkload(seed_cfg.domain, 25, seed=21).ranges()
        )
        plain_results = [plain.query(q) for q in queries]
        observed_results = []
        for index, query in enumerate(queries):
            if index % 5 == 0:
                sampler.sample_once()
                RingAuditor(observed).audit()
                health_check(observed)
            observed_results.append(observed.query(query))
        sampler.sample_once()
        assert plain_results == observed_results
        assert plain.network.stats.messages == observed.network.stats.messages
        assert plain.network.stats.bytes == observed.network.stats.bytes
        assert plain.network.stats.latency_ms == pytest.approx(
            observed.network.stats.latency_ms
        )
        assert plain.counters.scalar_values() == observed.counters.scalar_values()
