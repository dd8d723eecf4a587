"""Tests for the observability layer: metrics registry + query tracing."""

from __future__ import annotations

import json
from hashlib import sha256

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem, SystemCounters
from repro.net.latency import SeededLatency
from repro.net.message import Message
from repro.net.transport import TrafficStats
from repro.obs import (
    NULL_TRACE,
    Counter,
    HistogramMetric,
    LabeledCounterDict,
    MetricsRegistry,
    QueryTrace,
    Span,
)
from repro.ranges.interval import IntRange
from repro.sim.query import AsyncQueryEngine
from repro.workloads.generators import ZipfRangeWorkload


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("queries")
        second = registry.counter("queries")
        assert first is second
        first.inc()
        assert second.total() == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("messages")
        counter.inc(2, kind="match")
        counter.inc(3, kind="store")
        counter.inc(kind="match")
        assert counter.get(kind="match") == 3
        assert counter.get(kind="store") == 3
        assert counter.total() == 6

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_ms")
        for value in (1.0, 5.0, 50.0):
            hist.observe(value, phase="route")
        assert hist.count(phase="route") == 3
        assert hist.mean(phase="route") == pytest.approx(56.0 / 3)

    def test_snapshot_and_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(4)
        registry.counter("b").inc(1, peer=9)
        registry.histogram("h").observe(3.0)
        parsed = json.loads(registry.to_json())
        names = {m["name"] for m in parsed["metrics"]}
        assert names == {"a", "b", "h"}
        lines = registry.to_jsonl().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["name"] for line in lines)

    def test_report_renders_all_sections(self):
        registry = MetricsRegistry()
        registry.counter("scalar").inc(2)
        registry.counter("labeled").inc(kind="x")
        registry.histogram("hist").observe(1.0)
        report = registry.report("Title")
        assert "Title" in report
        assert "scalar" in report
        assert "labeled{kind=x}" in report
        assert "hist" in report

    def test_reset_clears_values_keeps_metrics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.reset()
        assert "c" in registry
        assert registry.counter("c").total() == 0


class TestLabeledCounterDict:
    def test_behaves_like_defaultdict_int(self):
        registry = MetricsRegistry()
        backing = registry.counter("by_kind")
        mapping = LabeledCounterDict(backing, "kind")
        assert mapping == {}
        mapping["match"] += 1
        mapping["match"] += 2
        assert mapping["match"] == 3
        assert mapping == {"match": 3}
        assert backing.get(kind="match") == 3


class TestRegistryBackedFacades:
    def test_traffic_stats_publishes_to_registry(self):
        registry = MetricsRegistry()
        stats = TrafficStats(registry=registry)
        stats.messages += 2
        stats.by_kind["match-request"] += 1
        assert registry.counter("net.messages").total() == 2
        assert registry.counter("net.messages_by_kind").get(
            kind="match-request"
        ) == 1

    def test_system_counters_share_system_registry(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=3))
        system.query(IntRange(10, 30))
        assert system.metrics.counter("system.queries").total() == 1
        assert (
            system.metrics.counter("net.messages").total()
            == system.network.stats.messages
        )

    def test_standalone_counters_get_private_registry(self):
        a = SystemCounters()
        b = SystemCounters()
        a.queries += 1
        assert a.queries == 1
        assert b.queries == 0

    def test_attribute_and_dict_contract(self):
        """What callers of the facades rely on, whatever the storage."""
        registry = MetricsRegistry()
        stats = TrafficStats(registry=registry)
        messages = registry.counter("net.messages")
        by_kind = registry.counter("net.messages_by_kind")
        # Zero on missing, for scalars and for keys, without creating them.
        assert stats.messages == 0 and stats.latency_ms == 0
        assert stats.by_kind["never-seen"] == 0
        assert stats.by_kind == {} and "never-seen" not in stats.by_kind
        # Read-modify-write, plain assignment and the registry agree.
        stats.messages += 3
        stats.messages += 4
        assert stats.messages == messages.get() == 7
        stats.messages = 0
        assert stats.messages == messages.get() == 0
        messages.inc(5)  # written behind the facade's back
        assert stats.messages == 5
        # record()/record_routing_hops() land in the same series.
        stats.record_routing_hops(2, size_bytes=10, latency_ms=1.5)
        stats.record(Message(1, 2, "match-request", size_bytes=64), 0.25)
        assert stats.messages == messages.get() == 8
        assert stats.bytes == 84 and stats.latency_ms == 1.75
        assert stats.by_kind == {"route-hop": 2, "match-request": 1}
        assert by_kind.get(kind="route-hop") == 2
        assert stats.sent_by_peer == {1: 1} and stats.received_by_peer == {2: 1}
        assert stats.scalar_values()["messages"] == 8
        del stats.by_kind["route-hop"]
        assert stats.by_kind == {"match-request": 1}
        assert by_kind.get(kind="route-hop") == 0
        stats.reset()
        assert stats.messages == 0 and stats.latency_ms == 0.0
        assert stats.by_kind == {} and by_kind.total() == 0
        assert registry.counter("net.sent_by_peer").total() == 0

    def test_label_order_does_not_split_a_series(self):
        counter = MetricsRegistry().counter("c")
        counter.inc(a=1, b=2)
        counter.inc(2, b=2, a=1)
        assert counter.get(b=2, a=1) == counter.get(a=1, b=2) == 3
        assert [labels for labels, _ in counter.items()] == [{"a": 1, "b": 2}]
        counter.set(9, b=2, a=1)
        assert counter.total() == 9
        # Unlabeled and single-label series stay apart from it.
        counter.inc()
        counter.inc(a=1)
        assert counter.get() == 1 and counter.get(a=1) == 1

    def test_exports_of_a_seeded_run_are_byte_identical(self):
        """The registry's JSON and text exports after a fixed run over both
        in-process transports (failover, drops, a mid-run reset, traced and
        untraced queries).  The digests were taken at the commit before the
        facades bound their series; a change to *what* is counted moves
        them, a change to how cheaply it is counted must not."""
        system = RangeSelectionSystem(
            SystemConfig(n_peers=40, seed=99, replicas=2)
        )
        ranges = ZipfRangeWorkload(
            system.config.domain, 60, seed=9, pool_size=25
        ).ranges()
        for query in ranges[:20]:
            system.query(query)
        system.crash_peer(system.router.node_ids[3])
        for query in ranges[20:30]:
            system.query(query, trace=system.start_trace(query))
        system.recover_peer(system.router.node_ids[3])
        engine = AsyncQueryEngine(
            system, seed=99, latency=SeededLatency(10.0, 100.0, seed=99),
            drop_probability=0.05,
        )
        engine.crash_peer(system.router.node_ids[7])
        for query in ranges[30:45]:
            engine.run(query)
        engine.net.stats.reset()
        for query in ranges[45:]:
            engine.run(query, trace=engine.start_trace(query))
        exports = (system.metrics.to_json(), system.metrics.report())
        assert [sha256(text.encode()).hexdigest() for text in exports] == [
            "401cf38e4d2238d8328d33afcd218d3ba2206c1e0c366facd35e64205bd11460",
            "a3ca63da8a755cad51fc8b2fedcc210423f9dad234f935561365de2fc128457c",
        ]


#: The ways into ``obs.registry`` that ``benchmarks/e2e`` counts as one
#: registry operation each (``workloads._patch_registry``).
REGISTRY_ENTRY_POINTS = (
    (Counter, ("inc", "set", "get")),
    (HistogramMetric, ("observe",)),
    (LabeledCounterDict, ("__setitem__",)),
    (MetricsRegistry, ("counter", "gauge", "histogram")),
)


class TestHotPathAccountingBudget:
    """A wall-clock-free stand-in for ``obs.registry_calls``: what an
    untraced query may spend on bookkeeping, counted in registry
    operations, so a facade regression fails here and not in a benchmark."""

    #: One overlay hop: messages, bytes, latency_ms, by_kind.
    OPS_PER_HOP = 4
    #: One request or reply: the same plus sent_by_peer, received_by_peer.
    OPS_PER_MESSAGE = 6

    def test_untraced_sync_query_stays_within_budget(self, monkeypatch):
        system = RangeSelectionSystem(SystemConfig(n_peers=1000, seed=5))
        ranges = ZipfRangeWorkload(
            system.config.domain, 80, seed=9, pool_size=30
        ).ranges()
        for query in ranges[:40]:
            system.query(query)
        operations = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                operations[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        for cls, methods in REGISTRY_ENTRY_POINTS:
            for method in methods:
                monkeypatch.setattr(cls, method, counted(getattr(cls, method)))
        stats = system.network.stats
        messages_before = stats.messages
        hops_before = stats.by_kind["route-hop"]
        operations[0] = 0
        for query in ranges[40:]:
            system.query(query)
        spent = operations[0]
        hops = stats.by_kind["route-hop"] - hops_before
        others = stats.messages - messages_before - hops
        assert hops > 500 and others >= 40 * system.config.l
        # Nothing per query, per chain or per clock reading on top of the
        # per-message charges: reads go through the facade attributes.
        assert spent <= self.OPS_PER_HOP * hops + self.OPS_PER_MESSAGE * others


class TestRoutingIsOneEventPerChain:
    """A lookup chain's route is charged in one step (two on a clockless
    transport: the forwarded prefix and the delivering hop) and lands in
    one kernel event: neither the kernel's event count nor the registry's
    operation count has a per-hop term."""

    #: One routed chain on the synchronous transport: messages, bytes,
    #: latency_ms, by_kind, for the prefix and again for the last edge.
    OPS_PER_ROUTE = 8
    #: One request or reply: the same plus sent_by_peer, received_by_peer.
    OPS_PER_MESSAGE = 6

    @staticmethod
    def routed(results) -> int:
        return sum(1 for r in results for c in r.chains if c.hops > 0)

    def test_kernel_events_have_no_per_hop_term(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=500, seed=5))
        engine = AsyncQueryEngine(system, latency=SeededLatency(seed=5), seed=5)
        fired = [0]
        call_at = engine.sim.call_at

        def counting(time, fn):
            def fire():
                fired[0] += 1
                fn()

            return call_at(time, fire)

        engine.sim.call_at = counting
        ranges = ZipfRangeWorkload(
            system.config.domain, 60, seed=9, pool_size=20
        ).ranges()
        results = [engine.run(query) for query in ranges]
        stats = engine.net.stats
        hops = stats.by_kind["route-hop"]
        assert hops > 5 * self.routed(results) > 0
        # Fault-free and hedge-free: one landing per routed chain, one
        # delivery per request or reply, and every timeout timer cancelled.
        assert fired[0] == self.routed(results) + stats.messages - hops

    def test_registry_operations_have_no_per_hop_term(self, monkeypatch):
        system = RangeSelectionSystem(SystemConfig(n_peers=1000, seed=5))
        ranges = ZipfRangeWorkload(
            system.config.domain, 80, seed=9, pool_size=30
        ).ranges()
        for query in ranges[:40]:
            system.query(query)
        operations = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                operations[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        for cls, methods in REGISTRY_ENTRY_POINTS:
            for method in methods:
                monkeypatch.setattr(cls, method, counted(getattr(cls, method)))
        stats = system.network.stats
        messages_before = stats.messages
        hops_before = stats.by_kind["route-hop"]
        operations[0] = 0
        results = [system.query(query) for query in ranges[40:]]
        spent = operations[0]
        hops = stats.by_kind["route-hop"] - hops_before
        others = stats.messages - messages_before - hops
        routed = self.routed(results)
        assert hops > 5 * routed > 0 and others >= 40 * system.config.l
        assert spent <= self.OPS_PER_ROUTE * routed + self.OPS_PER_MESSAGE * others


class TestSpanAndTrace:
    def test_span_tree_and_events(self):
        trace = QueryTrace(query="[1, 2]")
        with trace.span("hash") as hash_span:
            hash_span.event("group", group=0, identifier=42)
        chain = trace.span("locate").span("chain", identifier=42)
        chain.event("route-hop", source=1, target=2, via="finger[3]")
        chain.end(owner=2)
        trace.end(matched=None)
        assert trace.ended
        assert len(trace.find("chain")) == 1
        assert chain.events_named("route-hop")[0].attrs["via"] == "finger[3]"
        assert chain.attrs["owner"] == 2

    def test_default_clock_is_monotonic_steps(self):
        trace = QueryTrace()
        first = trace.event("a")
        second = trace.event("b")
        assert second.at_ms > first.at_ms

    def test_end_is_idempotent(self):
        span = Span("s", clock=lambda: 5.0)
        span.end(x=1)
        end_ms = span.end_ms
        span.end(y=2)
        assert span.end_ms == end_ms
        assert span.attrs == {"x": 1, "y": 2}

    def test_null_trace_is_inert(self):
        assert not NULL_TRACE
        assert NULL_TRACE.span("anything") is NULL_TRACE
        assert NULL_TRACE.event("anything") is None
        with NULL_TRACE.span("ctx") as span:
            span.event("inside")

    def test_to_json_serializes(self):
        trace = QueryTrace()
        trace.span("hash").end()
        trace.end()
        parsed = json.loads(trace.to_json())
        assert parsed["name"] == "query"
        assert parsed["spans"][0]["name"] == "hash"


class TestSyncPathTracing:
    def test_full_lifecycle_recorded(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=32, seed=7, l=4, k=4)
        )
        system.query(IntRange(10, 40))  # seed one partition
        trace = system.start_trace(IntRange(12, 38))
        result = system.query(IntRange(12, 38), trace=trace)
        assert trace.ended
        chains = trace.find("chain")
        assert len(chains) == system.config.l
        # Every chain records its route hop by hop with the routing edge.
        hops = sum(len(c.events_named("route-hop")) for c in chains)
        assert hops == result.overlay_hops
        for chain in chains:
            for event in chain.events_named("route-hop"):
                assert event.attrs["via"].startswith(("finger[", "successor"))
        # Every chain was answered and scored.
        assert all(len(c.events_named("match-reply")) == 1 for c in chains)
        # Hash span carries one group event per identifier.
        hash_span = trace.find("hash")[0]
        assert len(hash_span.events_named("group")) == system.config.l
        # Store-on-miss fan-out was traced.
        if result.stored:
            store = trace.find("store")[0]
            assert len(store.events_named("placement")) >= system.config.l
        assert trace.root.attrs["exact"] == result.exact
        json.loads(trace.to_json())

    def test_failover_recorded(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=24, seed=5, replicas=2)
        )
        system.query(IntRange(10, 30))
        locate = system.locate(IntRange(10, 30))
        # Crash every answering owner, forcing failover on the next query.
        for owner in set(locate.answered_by):
            system.crash_peer(owner)
        trace = system.start_trace(IntRange(10, 30))
        system.query(IntRange(10, 30), trace=trace)
        events = [
            event
            for chain in trace.find("chain")
            for event in chain.events_named("failover")
        ]
        assert events, "expected at least one traced failover step"

    def test_untraced_query_unchanged(self):
        seed_cfg = SystemConfig(n_peers=24, seed=9)
        plain = RangeSelectionSystem(seed_cfg)
        traced = RangeSelectionSystem(seed_cfg)
        first = plain.query(IntRange(5, 25))
        trace = traced.start_trace(IntRange(5, 25))
        second = traced.query(IntRange(5, 25), trace=trace)
        assert first == second
        assert plain.network.stats.messages == traced.network.stats.messages
        assert plain.network.stats.latency_ms == pytest.approx(
            traced.network.stats.latency_ms
        )


class TestEventDrivenTracing:
    def test_full_lifecycle_recorded(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=32, seed=7))
        system.query(IntRange(10, 40))
        engine = AsyncQueryEngine(system, fetch_rows=True)
        trace = engine.start_trace(IntRange(12, 38))
        result = engine.run(IntRange(12, 38), trace=trace)
        assert trace.ended
        chains = trace.find("chain")
        assert len(chains) == system.config.l
        hops = sum(len(c.events_named("route-hop")) for c in chains)
        assert hops == sum(c.hops for c in result.chains)
        # The async transport's lifecycle shows up as net-* events.
        sends = [
            event
            for chain in chains
            for event in chain.events
            if event.name == "net-send"
        ]
        assert len(sends) >= len(chains)
        replies = [
            event
            for chain in chains
            for event in chain.events
            if event.name == "net-reply"
        ]
        assert replies and all(e.attrs["ms"] >= 0 for e in replies)
        if result.found:
            assert len(trace.find("fetch")) == 1
        if result.stored:
            store = trace.find("store")[0]
            assert len(store.events_named("placement")) >= system.config.l
        # Trace timestamps ride the virtual clock.
        assert trace.root.end_ms == pytest.approx(engine.sim.now)
        json.loads(trace.to_json())

    def test_timeout_and_retry_events(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=11))
        system.query(IntRange(10, 30))
        engine = AsyncQueryEngine(system)
        locate = system.locate(IntRange(10, 30))
        for owner in set(locate.answered_by):
            engine.crash_peer(owner)
        trace = engine.start_trace(IntRange(10, 30))
        result = engine.run(IntRange(10, 30), trace=trace)
        assert result.timeouts > 0
        timeouts = [
            event
            for chain in trace.find("chain")
            for event in chain.events
            if event.name == "net-timeout"
        ]
        assert timeouts and all(e.attrs["waited_ms"] > 0 for e in timeouts)

    def test_engine_stats_reach_system_registry(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=2))
        engine = AsyncQueryEngine(system)
        engine.run(IntRange(5, 15))
        assert (
            system.metrics.counter("sim.net.messages").total()
            == engine.net.stats.messages
        )


class TestTimeSeriesMetric:
    def test_append_points_last_values(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts")
        series.append(0.0, 1.0, node=3)
        series.append(500.0, 2.0, node=3)
        series.append(0.0, 9.0, node=4)
        assert series.points(node=3) == [(0.0, 1.0), (500.0, 2.0)]
        assert series.last(node=3) == (500.0, 2.0)
        assert series.values(node=3) == [1.0, 2.0]
        assert series.points(node=99) == []
        assert series.last(node=99) is None
        assert len(series) == 2

    def test_capacity_evicts_oldest(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts", capacity=3)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_invalid_capacity_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.timeseries("ts", capacity=0)

    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        first = registry.timeseries("ts")
        assert registry.timeseries("ts") is first
        with pytest.raises(ValueError):
            registry.counter("ts")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        series = registry.timeseries("ts", capacity=8)
        series.append(1.0, 2.0, node=1)
        doc = series.snapshot()
        assert doc["kind"] == "timeseries"
        assert doc["capacity"] == 8
        assert doc["series"] == [{"labels": {"node": 1}, "points": [[1.0, 2.0]]}]


class TestRegistryJsonRoundTrip:
    """snapshot() -> to_json() -> parse must reproduce snapshot() exactly."""

    def test_mixed_label_orders_address_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(1, a=1, b=2)
        counter.inc(2, b=2, a=1)  # same series, different kwarg order
        assert counter.get(a=1, b=2) == 3
        parsed = json.loads(registry.to_json())
        series = parsed["metrics"][0]["series"]
        assert len(series) == 1
        assert series[0]["value"] == 3

    def test_full_roundtrip_equals_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4, peer=7)
        registry.counter("c").inc(1, peer=9)
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(3.0, phase="route")
        registry.timeseries("ts").append(0.0, 1.0, node=1)
        assert json.loads(registry.to_json()) == registry.snapshot()
        lines = registry.to_jsonl().strip().splitlines()
        assert [json.loads(line) for line in lines] == registry.snapshot()[
            "metrics"
        ]

    def test_empty_registry_roundtrip(self):
        registry = MetricsRegistry()
        assert json.loads(registry.to_json()) == {"metrics": []}
        assert registry.to_jsonl() == ""

    def test_cleared_metric_keeps_name_drops_series(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5, peer=1)
        registry.counter("c").clear()
        parsed = json.loads(registry.to_json())
        assert parsed["metrics"] == [
            {"name": "c", "kind": "counter", "help": "", "series": []}
        ]
