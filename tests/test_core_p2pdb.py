"""Tests for the SQL-over-P2P front end."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.p2pdb import P2PDatabase
from repro.core.system import RangeSelectionSystem
from repro.db.catalog import medical_catalog
from repro.db.plan.executor import SourceProvider, execute_plan
from repro.db.plan.planner import plan_select
from repro.db.sql.parser import parse_select
from repro.ranges.domain import Domain

PAPER_SQL = (
    "SELECT Prescription.prescription FROM Patient, Diagnosis, Prescription "
    "WHERE age BETWEEN 30 AND 50 AND diagnosis = 'Glaucoma' "
    "AND Patient.patient_id = Diagnosis.patient_id "
    "AND date BETWEEN DATE '2000-01-01' AND DATE '2002-12-31' "
    "AND Diagnosis.prescription_id = Prescription.prescription_id"
)


@pytest.fixture
def db():
    catalog = medical_catalog(n_patients=400, n_physicians=8)
    system = RangeSelectionSystem(
        SystemConfig(
            n_peers=40,
            seed=31,
            domain=Domain("value", 0, 10**6),
        )
    )
    return P2PDatabase(catalog, system)


class TestCorrectness:
    def test_first_execution_matches_source_only_baseline(self, db):
        baseline_catalog = medical_catalog(n_patients=400, n_physicians=8)
        plan = plan_select(parse_select(PAPER_SQL), baseline_catalog.schema)
        baseline = execute_plan(
            plan, baseline_catalog.schema, SourceProvider(baseline_catalog)
        )
        via_p2p = db.execute(PAPER_SQL)
        assert sorted(via_p2p.rows) == sorted(baseline.rows)

    def test_repeat_execution_identical_and_cached(self, db):
        first = db.execute(PAPER_SQL)
        accesses_after_first = db.catalog.source_accesses
        second = db.execute(PAPER_SQL)
        assert sorted(first.rows) == sorted(second.rows)
        assert db.catalog.source_accesses == accesses_after_first
        assert set(second.result.stats.leaf_origins.values()) == {"cache"}

    def test_similar_query_served_from_cache(self, db):
        db.execute(PAPER_SQL)
        accesses = db.catalog.source_accesses
        narrower = PAPER_SQL.replace("BETWEEN 30 AND 50", "BETWEEN 30 AND 49")
        report = db.execute(narrower)
        assert db.catalog.source_accesses == accesses
        assert report.coverage == 1.0
        # Results must respect the narrower predicate even though the cached
        # partition is broader: row-level filtering happens locally.
        assert all(isinstance(r[0], str) for r in report.rows)

    def test_cached_broader_partition_filtered_correctly(self, db):
        broad = "SELECT age FROM Patient WHERE age BETWEEN 20 AND 60"
        narrow = "SELECT age FROM Patient WHERE age BETWEEN 30 AND 50"
        db.execute(broad)
        result = db.execute(narrow)
        assert all(30 <= row[0] <= 60 for row in result.rows)
        assert all(30 <= row[0] <= 50 for row in result.rows)


class TestApproximateMode:
    def test_no_fallback_returns_partial_answers(self):
        catalog = medical_catalog(n_patients=400)
        system = RangeSelectionSystem(
            SystemConfig(
                n_peers=40,
                seed=77,
                matcher="containment",
                domain=Domain("value", 0, 10**6),
            )
        )
        db = P2PDatabase(catalog, system, fallback_to_source=False)
        warm = "SELECT age FROM Patient WHERE age BETWEEN 30 AND 50"
        first = db.execute(warm)
        assert set(first.result.stats.leaf_origins.values()) == {"source+store"}
        # A slightly narrower query: cached partition contains it fully.
        narrower = "SELECT age FROM Patient WHERE age BETWEEN 31 AND 50"
        second = db.execute(narrower)
        assert set(second.result.stats.leaf_origins.values()) == {"cache"}
        assert second.coverage == 1.0


class TestEqualityPath:
    def test_string_equality_uses_exact_dht(self, db):
        sql = "SELECT patient_id FROM Diagnosis WHERE diagnosis = 'Diabetes'"
        first = db.execute(sql)
        assert first.result.stats.leaf_origins["Diagnosis"] == "source+store"
        second = db.execute(sql)
        assert second.result.stats.leaf_origins["Diagnosis"] == "cache"
        assert sorted(first.rows) == sorted(second.rows)

    def test_int_equality_goes_through_range_path(self, db):
        sql = "SELECT name FROM Patient WHERE age = 30"
        report = db.execute(sql)
        # age = 30 becomes the point range [30, 30], cached like any range.
        again = db.execute(sql)
        assert sorted(report.rows) == sorted(again.rows)
        assert again.result.stats.leaf_origins["Patient"] == "cache"


class TestReporting:
    def test_summary_mentions_origins(self, db):
        report = db.execute("SELECT name FROM Patient WHERE age >= 110")
        assert "Patient" in report.summary()
        assert "rows" in report.summary()

    def test_explain_shows_pushdown(self, db):
        text = db.explain(PAPER_SQL)
        assert "Select[Patient" in text
        assert "Join[" in text


class TestStatisticsIntegration:
    def test_analyze_changes_join_order_not_results(self, db):
        sql = (
            "SELECT Prescription.prescription FROM Prescription, Patient, "
            "Diagnosis WHERE age BETWEEN 30 AND 50 "
            "AND diagnosis = 'Glaucoma' "
            "AND Patient.patient_id = Diagnosis.patient_id "
            "AND Diagnosis.prescription_id = Prescription.prescription_id"
        )
        before = db.execute(sql)
        db.analyze()
        after = db.execute(sql)
        assert sorted(before.rows) == sorted(after.rows)
        # With statistics the plan starts from a selective relation, not
        # from the FROM-first Prescription.
        explained = db.explain(sql)
        deepest = [
            line for line in explained.splitlines() if "Select[" in line
        ]
        assert deepest  # plan renders leaves


class TestDescriptorOnlyEntries:
    def test_rowless_cache_entry_falls_back_to_source(self):
        """A partition stored without tuples (simulation-mode store) cannot
        answer a database query; the provider must fall through to the
        source instead of returning an empty result."""
        from repro.ranges.interval import IntRange

        catalog = medical_catalog(n_patients=200)
        system = RangeSelectionSystem(
            SystemConfig(
                n_peers=20,
                seed=88,
                matcher="containment",
                domain=Domain("value", 0, 10**6),
            )
        )
        # Simulation-mode store of the *exact* query range: the locate
        # step will certainly find it, but it carries no tuples.
        system.store_partition(IntRange(30, 50), "Patient", "age")
        db = P2PDatabase(catalog, system)
        report = db.execute(
            "SELECT age FROM Patient WHERE age BETWEEN 30 AND 50"
        )
        assert report.coverage == 1.0
        assert len(report.rows) > 0
        assert catalog.source_accesses >= 1


class TestPartialCoverageReporting:
    def test_partial_answer_reports_true_coverage(self):
        """Approximate mode: a partially covering cached partition yields a
        partial row set, and the report's coverage reflects it."""
        from repro.db.partition import Partition
        from repro.ranges.interval import IntRange

        catalog = medical_catalog(n_patients=300)
        system = RangeSelectionSystem(
            SystemConfig(
                n_peers=20,
                seed=89,
                matcher="containment",
                domain=Domain("value", 0, 10**6),
            )
        )
        # Plant a narrower partition *with rows* in the buckets that the
        # query range [30, 50] hashes to, so the locate step finds it.
        narrow = IntRange(30, 45)
        rows = catalog.relation("Patient").select_range("age", narrow)
        partition = Partition.from_rows("Patient", "age", narrow, rows)
        identifiers = system.identifiers_for(IntRange(30, 50))
        system.store_partition(
            narrow, "Patient", "age", partition=partition,
            identifiers=identifiers,
        )
        db = P2PDatabase(catalog, system, fallback_to_source=False)
        report = db.execute(
            "SELECT age FROM Patient WHERE age BETWEEN 30 AND 50"
        )
        assert report.result.stats.leaf_origins["Patient"] == "cache"
        assert report.coverage == pytest.approx(16 / 21)
        assert all(30 <= row[0] <= 45 for row in report.rows)
        assert catalog.source_accesses == 0
