"""Tests for metrics: query logs, recall aggregation, text reports."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.db.partition import PartitionDescriptor
from repro.errors import ConfigError
from repro.metrics.collector import QueryLog
from repro.metrics.recall import (
    RECALL_GRID,
    fraction_at_least,
    fraction_fully_answered,
    recall_cdf,
    recall_comparison,
)
from repro.metrics.report import (
    format_histogram,
    format_recall_cdf,
    format_series,
    format_table,
)
from repro.ranges.interval import IntRange
from repro.rpc.engine import ChainOutcome, MatchReply, TimedQueryResult
from repro.sim.query import AsyncQueryEngine
from repro.util.stats import Histogram


def result(
    similarity=0.9, recall=0.8, found=True, exact=False, hops=3,
    total_ms=0.0, timeouts=0, failovers=0, partial=False,
):
    chain = ChainOutcome(
        identifier=1,
        owner=5,
        hops=hops,
        route_ms=0.0,
        reply=MatchReply(5, 1, None, 0.0),
        completed_ms=total_ms,
        timed_out=False,
    )
    return TimedQueryResult(
        query=IntRange(0, 10),
        hashed_query=IntRange(0, 10),
        matched=PartitionDescriptor("R", "value", IntRange(0, 12)) if found else None,
        similarity=similarity if found else 0.0,
        recall=recall if found else 0.0,
        matcher_score=similarity,
        exact=exact,
        stored=not exact,
        chains=(chain,),
        timeouts=timeouts,
        failovers=failovers,
        store_failures=0,
        route_ms=0.0,
        match_ms=total_ms,
        locate_ms=total_ms,
        fetch_ms=0.0,
        store_ms=0.0,
        total_ms=total_ms,
        partial=partial,
    )


class TestQueryLog:
    def test_records_accumulate(self):
        log = QueryLog()
        log.add(result())
        log.add(result(found=False))
        assert len(log) == 2

    def test_warmup_drops_prefix(self):
        log = QueryLog()
        for _ in range(10):
            log.add(result())
        assert len(log.measured(0.2)) == 8
        assert len(log.measured(0.0)) == 10

    def test_warmup_validation(self):
        with pytest.raises(ConfigError):
            QueryLog().measured(1.0)

    def test_similarity_histogram_counts_misses(self):
        log = QueryLog()
        for _ in range(4):
            log.add(result(similarity=0.95))
        log.add(result(found=False))
        hist = log.similarity_histogram(warmup_fraction=0.0)
        assert hist.misses == 1
        assert hist.counts[9] == 4

    def test_recall_values_zero_for_misses(self):
        log = QueryLog()
        log.add(result(found=False))
        assert log.recall_values(0.0) == [0.0]

    def test_exact_fraction(self):
        log = QueryLog()
        log.add(result(exact=True))
        log.add(result(exact=False))
        assert log.exact_fraction(0.0) == 0.5

    def test_hop_values(self):
        log = QueryLog()
        log.add(result(hops=7))
        assert log.hop_values() == [7]

    def test_record_projection(self):
        # The log records the engine result itself; the paper's per-query
        # quantities read straight off it.
        kept = result(similarity=0.5, recall=0.4)
        log = QueryLog()
        log.add(kept)
        assert log.results == [kept] and log.results[0] is kept
        record = log.measured(0.0)[0]
        assert record.similarity == 0.5
        assert record.recall == 0.4
        assert record.found

    def test_empty_log_phase_summary_is_zero_row(self):
        summary = QueryLog().phase_summary()
        assert list(summary) == ["route", "match", "fetch", "store", "total"]
        assert summary["total"].count == 0
        assert summary["total"].p99 == 0.0

    def test_empty_log_report_renders(self):
        report = QueryLog().report()
        assert "total" in report
        assert report.endswith("misses=0  mean recall=0.000")

    def test_fault_tallies_and_phase_percentiles(self):
        log = QueryLog(
            [
                result(total_ms=10.0),
                result(total_ms=20.0, timeouts=2, found=False),
                result(total_ms=30.0, failovers=1, partial=True, recall=0.2),
            ]
        )
        assert (log.chain_timeouts, log.failovers) == (2, 1)
        assert (log.degraded_queries, log.partial_queries, log.misses) == (2, 1, 1)
        assert log.mean_recall() == pytest.approx((0.8 + 0.0 + 0.2) / 3)
        total = log.phase_summary()["total"]
        assert (total.count, total.mean, total.p50, total.maximum) == (
            3, 20.0, 20.0, 30.0,
        )
        assert log.report().splitlines()[-1] == (
            "queries=3  chain timeouts=2  failovers=1  degraded=2  "
            "partial=1  misses=1  mean recall=0.333"
        )

    def test_phase_summary_reads_event_driven_results(self):
        system = RangeSelectionSystem(SystemConfig(n_peers=16, seed=4))
        system.query(IntRange(5, 25))
        timed = AsyncQueryEngine(system).run(IntRange(5, 25))
        log = QueryLog([timed])
        summary = log.phase_summary()
        assert summary["total"].count == 1
        assert summary["total"].p50 == timed.total_ms > 0.0
        assert summary["route"].maximum == timed.route_ms


class TestRecallAggregation:
    def test_grid_spans_unit_interval_descending(self):
        assert RECALL_GRID[0] == 1.0
        assert RECALL_GRID[-1] == 0.0
        assert list(RECALL_GRID) == sorted(RECALL_GRID, reverse=True)

    def test_recall_cdf_values(self):
        points = dict(recall_cdf([1.0, 0.5, 0.5, 0.0], grid=[1.0, 0.5, 0.0]))
        assert points[1.0] == 25.0
        assert points[0.5] == 75.0
        assert points[0.0] == 100.0

    def test_fraction_helpers(self):
        recalls = [1.0, 1.0, 0.8, 0.2]
        assert fraction_fully_answered(recalls) == 50.0
        assert fraction_at_least(recalls, 0.8) == 75.0
        assert fraction_fully_answered([]) == 0.0

    def test_recall_comparison_paired(self):
        base = [0.5, 0.5, 1.0]
        variant = [1.0, 0.4, 1.0]
        stats = recall_comparison(base, variant)
        assert stats["improved_pct"] == pytest.approx(100 / 3)
        assert stats["worsened_pct"] == pytest.approx(100 / 3)
        assert stats["unchanged_pct"] == pytest.approx(100 / 3)
        assert stats["variant_full_pct"] == pytest.approx(200 / 3)

    def test_recall_comparison_validates(self):
        with pytest.raises(ValueError):
            recall_comparison([0.5], [0.5, 0.6])
        with pytest.raises(ValueError):
            recall_comparison([], [])


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "2.50" in text  # floats rendered with 2 decimals

    def test_format_series(self):
        text = format_series("x", "y", [(1.0, 2.0)])
        assert "x" in text and "y" in text

    def test_format_histogram_shows_misses(self):
        hist = Histogram(n_bins=2)
        hist.add(0.9)
        hist.add_miss()
        text = format_histogram(hist, title="H")
        assert "no match" in text
        assert "50.00%" in text

    def test_format_recall_cdf_requires_shared_grid(self):
        a = [(1.0, 50.0), (0.5, 75.0)]
        b = [(1.0, 60.0), (0.4, 80.0)]
        with pytest.raises(ValueError):
            format_recall_cdf({"a": a, "b": b})
        text = format_recall_cdf({"a": a, "a2": a})
        assert "recall >=" in text

    def test_format_recall_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            format_recall_cdf({})
