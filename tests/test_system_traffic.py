"""Tests for traffic accounting at the system level."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.net.transport import TrafficStats
from repro.ranges.interval import IntRange
from repro.sim.query import AsyncQueryEngine
from repro.workloads.generators import ZipfRangeWorkload


class TestRoutingHopAccounting:
    def test_record_routing_hops(self):
        stats = TrafficStats()
        stats.record_routing_hops(5)
        assert stats.messages == 5
        assert stats.by_kind["route-hop"] == 5
        assert stats.bytes == 5 * 32

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            TrafficStats().record_routing_hops(-1)

    def test_query_traffic_includes_routing(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=150, seed=44))
        system.network.stats.reset()
        result = system.query(IntRange(200, 400))
        stats = system.network.stats
        assert stats.by_kind["route-hop"] == result.overlay_hops
        # Total messages: hops + l match requests + l stores (cold miss).
        assert stats.messages == result.overlay_hops + 10

    def test_exact_hit_cheaper_than_miss(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=150, seed=44))
        system.query(IntRange(200, 400))
        system.network.stats.reset()
        system.query(IntRange(200, 400))  # exact hit: no stores
        assert "store-request" not in system.network.stats.by_kind


class TestCacheEconomics:
    def test_repeated_workload_amortizes_traffic(self):
        """Under heavy reuse, per-query messages approach probe-only cost."""
        system = RangeSelectionSystem(SystemConfig(n_peers=100, seed=45))
        workload = ZipfRangeWorkload(
            system.config.domain, 600, seed=9, pool_size=40
        ).ranges()
        first_half, second_half = workload[:300], workload[300:]
        for query in first_half:
            system.query(query)
        system.network.stats.reset()
        for query in second_half:
            system.query(query)
        warm_messages = system.network.stats.messages / len(second_half)
        # Almost everything is an exact hit by now: stores are rare, so the
        # per-query message count is near the probe floor (hops + 5).
        stores = system.network.stats.by_kind.get("store-request", 0)
        assert stores < 0.2 * 5 * len(second_half)
        assert warm_messages < 40


def traffic(stats: TrafficStats) -> tuple:
    return (
        stats.scalar_values(), dict(stats.by_kind),
        dict(stats.sent_by_peer), dict(stats.received_by_peer),
    )


def sync_path(config: SystemConfig):
    system = RangeSelectionSystem(config)
    for peer in system.router.node_ids[::3]:
        system.crash_peer(peer)
    return system.query, system.start_trace, system.network.stats


def sim_path(config: SystemConfig):
    engine = AsyncQueryEngine(
        RangeSelectionSystem(config), seed=config.seed, drop_probability=0.05
    )
    for peer in engine.system.router.node_ids[::3]:
        engine.system.crash_peer(peer)
    return engine.run, engine.start_trace, engine.net.stats


class TestTracingDoesNotChangeTheAccounting:
    """An untraced query skips the per-hop trace work (no recorder handed
    to the router, no ``route-hop`` events built); what it answers and
    what it charges must not depend on that."""

    @pytest.mark.parametrize("path", [sync_path, sim_path])
    def test_same_results_same_traffic(self, path):
        config = SystemConfig(n_peers=120, seed=44, replicas=2)
        queries = ZipfRangeWorkload(
            config.domain, 40, seed=9, pool_size=15
        ).ranges()
        run, _, plain_stats = path(config)
        plain = [run(query) for query in queries]
        run, start_trace, traced_stats = path(config)
        traces = [start_trace(query) for query in queries]
        traced = [run(query, trace=t) for query, t in zip(queries, traces)]
        assert plain == traced
        assert traffic(plain_stats) == traffic(traced_stats)
        assert plain_stats.messages > 0 and plain_stats.failovers > 0
        # The traced side still carries every hop, edge by edge.
        chains = [chain for trace in traces for chain in trace.find("chain")]
        for chain in chains:
            hops = chain.events_named("route-hop")
            assert len(hops) == chain.attrs["hops"]
            for before, after in zip(hops, hops[1:]):
                assert before.attrs["target"] == after.attrs["source"]
            if hops:
                assert hops[-1].attrs["target"] == chain.attrs["owner"]
            for hop in hops:
                assert set(hop.attrs) == {"source", "target", "via", "delay_ms"}
                assert hop.attrs["via"].startswith(("finger[", "successor"))
                assert hop.attrs["delay_ms"] >= 0
        # by_kind also counts the one hop each failover step is charged.
        assert traced_stats.by_kind["route-hop"] == sum(
            len(chain.events_named("route-hop"))
            + len(chain.events_named("failover"))
            for chain in chains
        )
