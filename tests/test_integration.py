"""End-to-end integration tests across subsystems."""

from __future__ import annotations

from repro import (
    AdaptivePaddingController,
    ClusteredRangeWorkload,
    Domain,
    IntRange,
    P2PDatabase,
    RangeSelectionSystem,
    SystemConfig,
    UniformRangeWorkload,
    medical_catalog,
)
from repro.metrics import QueryLog, fraction_fully_answered


class TestWarmupDynamics:
    """As the cache fills, hit quality improves — the system's raison d'être."""

    def test_recall_improves_over_time(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=100, seed=42))
        workload = UniformRangeWorkload(system.config.domain, 2000, seed=9)
        log = QueryLog()
        for query in workload:
            log.add(system.query(query))
        records = log.results
        early = [r.recall for r in records[100:400]]
        late = [r.recall for r in records[-300:]]
        assert sum(late) / len(late) > sum(early) / len(early)

    def test_clustered_workload_gets_near_perfect_recall(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=100, seed=42, matcher="containment")
        )
        workload = ClusteredRangeWorkload(
            system.config.domain, 800, seed=3, n_clusters=4, jitter=5
        )
        log = QueryLog()
        for query in workload:
            log.add(system.query(query))
        recalls = log.recall_values()
        assert sum(recalls) / len(recalls) > 0.9

    def test_every_miss_is_cached_exactly_once(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=50, seed=8))
        queries = [IntRange(i * 10, i * 10 + 50) for i in range(20)]
        for query in queries:
            system.query(query)
        assert system.unique_partitions() == len(set(queries))
        # Re-running the same queries adds nothing new.
        for query in queries:
            system.query(query)
        assert system.unique_partitions() == len(set(queries))


class TestMessageEconomy:
    """The architecture's point: bounded messages instead of flooding."""

    def test_messages_per_query_bounded_by_l(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=200, seed=5))
        system.network.stats.reset()
        system.query(IntRange(100, 300))  # miss: l match requests + l stores
        assert system.network.stats.by_kind["match-request"] == 5
        assert system.network.stats.by_kind["store-request"] == 5
        system.network.stats.reset()
        system.query(IntRange(100, 300))  # exact hit: no stores
        assert system.network.stats.by_kind["match-request"] == 5
        assert "store-request" not in system.network.stats.by_kind

    def test_overlay_hops_logarithmic_not_linear(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=500, seed=5))
        result = system.query(IntRange(100, 300))
        # 5 lookups, each O(log 500) ~ 4.5: far below peer count.
        assert result.overlay_hops < 100


class TestDatabaseRoundTrip:
    def test_workload_of_sql_queries_reduces_source_load(self):
        catalog = medical_catalog(n_patients=500)
        system = RangeSelectionSystem(
            SystemConfig(
                n_peers=60,
                seed=12,
                matcher="containment",
                domain=Domain("value", 0, 10**6),
            )
        )
        db = P2PDatabase(catalog, system)
        # Ten queries over overlapping age ranges around [30, 50].  Only
        # ranges with Jaccard similarity near 0.9+ are *expected* to reuse
        # the cache (the k=20, l=5 curve steps at 0.9); narrow subsets like
        # [35, 45] (similarity 0.52) correctly go to the source.
        cache_served = 0
        queries = [(30, 50), (30, 50), (31, 50), (30, 49), (32, 48),
                   (35, 45), (30, 50), (33, 47), (31, 49), (34, 46)]
        for low, high in queries:
            report = db.execute(
                f"SELECT name FROM Patient WHERE age BETWEEN {low} AND {high}"
            )
            assert report.coverage == 1.0
            if report.result.stats.leaf_origins["Patient"] == "cache":
                cache_served += 1
        # The cache must have absorbed a real share of the load: identical
        # repeats always hit, and at least one merely-similar range did too.
        assert catalog.source_accesses <= len(queries) - 3
        assert cache_served >= 3

    def test_results_always_respect_predicates(self):
        catalog = medical_catalog(n_patients=300)
        system = RangeSelectionSystem(
            SystemConfig(
                n_peers=30,
                seed=13,
                domain=Domain("value", 0, 10**6),
            )
        )
        db = P2PDatabase(catalog, system)
        db.execute("SELECT age FROM Patient WHERE age BETWEEN 10 AND 90")
        result = db.execute("SELECT age FROM Patient WHERE age BETWEEN 40 AND 50")
        assert all(40 <= row[0] <= 50 for row in result.rows)


class TestAdaptiveLoop:
    def test_controller_converges_with_real_system(self):
        system = RangeSelectionSystem(
            SystemConfig(n_peers=100, seed=21, matcher="containment")
        )
        controller = AdaptivePaddingController(target_recall=0.8)
        workload = UniformRangeWorkload(system.config.domain, 1500, seed=33)
        log = QueryLog()
        for query in workload:
            result = system.query(query, padding=controller.padding)
            controller.observe(result.recall)
            log.add(result)
        assert 0.0 <= controller.padding <= 0.5
        late = log.recall_values(warmup_fraction=0.5)
        assert fraction_fully_answered(late) > 30.0


class TestChurnWithStorage:
    def test_ownership_consistent_after_static_membership_change(self):
        """After adding peers and rebuilding, lookups still resolve and the
        ring invariants hold (data migration is the application's job; the
        overlay must stay consistent)."""
        system = RangeSelectionSystem(SystemConfig(n_peers=50, seed=30))
        system.query(IntRange(100, 200))
        ring = system.ring
        for i in range(10):
            node = ring.add_node(f"late-joiner-{i}")
            system.stores[node.node_id] = type(
                next(iter(system.stores.values()))
            )(node.node_id)
            system.network.register(node.node_id, system._make_handler(node.node_id))
        ring.build()
        ring.check_invariants()
        result = system.query(IntRange(500, 600))
        assert result.peers_contacted >= 1


class TestDeterminism:
    def test_identical_configs_identical_outcomes(self):
        def run() -> list[float]:
            system = RangeSelectionSystem(SystemConfig(n_peers=60, seed=77))
            workload = UniformRangeWorkload(system.config.domain, 300, seed=7)
            return [system.query(q).recall for q in workload]

        assert run() == run()

    def test_seed_changes_outcomes(self):
        def run(seed: int) -> list[float]:
            system = RangeSelectionSystem(SystemConfig(n_peers=60, seed=seed))
            workload = UniformRangeWorkload(system.config.domain, 300, seed=7)
            return [system.query(q).recall for q in workload]

        assert run(1) != run(2)
