"""Tests for the experiment harness (quick-scale runs, shape assertions).

These run each figure's experiment at CI scale and assert the *qualitative*
shapes the paper reports, not absolute numbers.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.experiments import (
    AdaptivePaddingExperiment,
    ContainmentMatchingExperiment,
    HashTimingExperiment,
    IdealFamilyAblation,
    LoadBalanceExperiment,
    LocalIndexExperiment,
    MatchQualityExperiment,
    PaddingExperiment,
    PathLengthExperiment,
    RecallExperiment,
)


class TestFig5Timing:
    def test_ordering_linear_fastest_minwise_slowest(self):
        outcome = HashTimingExperiment.quick().run()
        assert outcome.mean_ms("linear") < outcome.mean_ms("approx-min-wise")
        assert outcome.mean_ms("approx-min-wise") < outcome.mean_ms("min-wise")

    def test_time_grows_with_range_size(self):
        outcome = HashTimingExperiment.quick().run()
        for family, points in outcome.series.items():
            times = [ms for _, ms in points]
            assert times[0] < times[-1], family

    def test_speedup_factors_at_least(self):
        outcome = HashTimingExperiment.quick().run()
        assert outcome.speedup("linear", "min-wise") > 10
        assert outcome.speedup("approx-min-wise", "min-wise") > 2

    def test_report_renders(self):
        text = HashTimingExperiment.quick().run().report()
        assert "Figure 5" in text and "speedups" in text


class TestFig6And7Quality:
    @pytest.fixture(scope="class")
    def outcomes(self):
        trace = None
        results = {}
        for family in ("min-wise", "approx-min-wise", "linear"):
            exp = MatchQualityExperiment.quick(family)
            if trace is None:
                trace = exp.workload()
            exp.trace = trace
            results[family] = exp.run()
        return results

    def test_minwise_concentrates_at_high_similarity(self, outcomes):
        hist = outcomes["min-wise"].histogram
        top_bin_pct = hist.percentages()[-1]
        assert top_bin_pct > 20.0  # mass concentrated in [0.9, 1.0]

    def test_minwise_has_substantial_miss_mass(self, outcomes):
        assert outcomes["min-wise"].miss_percentage() > 10.0

    def test_strictness_ordering_minwise_to_linear(self, outcomes):
        """The paper's selectivity story: min-wise imitates the ideal step
        (so it refuses mediocre matches and misses most), approx is looser,
        and linear permutations match almost anything."""
        assert (
            outcomes["min-wise"].miss_percentage()
            > outcomes["approx-min-wise"].miss_percentage()
            > outcomes["linear"].miss_percentage()
        )

    def test_linear_still_finds_identical_matches(self, outcomes):
        # Identical queries exist (repetitions) and linear must catch them.
        assert outcomes["linear"].exact_fraction >= 0.0

    def test_report_renders(self, outcomes):
        assert "Match quality" in outcomes["min-wise"].report()


class TestFig8Recall:
    def test_full_answer_ordering(self):
        outcome = RecallExperiment.quick().run()
        # Paper Fig 8: linear answers the most queries completely (its loose
        # matching lands on broad containing partitions), min-wise the least.
        linear = outcome.fully_answered("linear")
        approx = outcome.fully_answered("approx-min-wise")
        minwise = outcome.fully_answered("min-wise")
        assert linear > minwise
        assert approx > minwise
        assert linear >= approx * 0.9

    def test_cdf_monotone(self):
        outcome = RecallExperiment.quick().run()
        for family in outcome.outcomes:
            ys = [y for _, y in outcome.cdf(family)]
            assert ys == sorted(ys)

    def test_report_renders(self):
        assert "Figure 8" in RecallExperiment.quick().run().report()


class TestFig9Containment:
    def test_containment_improves_full_answers(self):
        outcome = ContainmentMatchingExperiment.quick().run()
        stats = outcome.comparison()
        assert stats["variant_full_pct"] > stats["baseline_full_pct"]

    def test_most_queries_not_worse(self):
        outcome = ContainmentMatchingExperiment.quick().run()
        stats = outcome.comparison()
        assert stats["improved_pct"] + stats["unchanged_pct"] > 50.0

    def test_report_renders(self):
        assert "Figure 9" in ContainmentMatchingExperiment.quick().run().report()


class TestFig10Padding:
    def test_padding_improves_full_answers(self):
        outcome = PaddingExperiment.quick().run()
        stats = outcome.comparison()
        assert stats["variant_full_pct"] > stats["baseline_full_pct"]

    def test_padding_hurts_some_queries(self):
        """The paper's trade-off: padding lowers recall for a minority."""
        outcome = PaddingExperiment.quick().run()
        stats = outcome.comparison()
        assert stats["worsened_pct"] > 0.0

    def test_report_renders(self):
        assert "Figure 10" in PaddingExperiment.quick().run().report()


class TestFig11Load:
    @pytest.fixture(scope="class")
    def outcome(self):
        return LoadBalanceExperiment.quick().run()

    def test_mean_load_inversely_proportional_to_peers(self, outcome):
        means = {n: stats.mean for n, stats in outcome.by_peers}
        ns = sorted(means)
        for a, b in zip(ns, ns[1:]):
            assert means[a] == pytest.approx(means[b] * b / a, rel=0.01)

    def test_mean_load_proportional_to_partitions(self, outcome):
        means = [stats.mean for _, stats in outcome.by_partitions]
        totals = [total for total, _ in outcome.by_partitions]
        for (m1, t1), (m2, t2) in zip(
            zip(means, totals), zip(means[1:], totals[1:])
        ):
            assert m2 / m1 == pytest.approx(t2 / t1, rel=0.01)

    def test_p99_band_present_but_bounded(self, outcome):
        for _, stats in outcome.by_peers:
            assert stats.p99 >= stats.mean
            assert stats.p99 < stats.mean * 25  # no pathological hot spot

    def test_report_renders(self, outcome):
        text = outcome.report()
        assert "Figure 11a" in text and "Figure 11b" in text


class TestRunAll:
    def test_jobs_regenerate_every_committed_result_but_the_live_one(self):
        from repro.experiments.runall import jobs

        results = Path(__file__).resolve().parent.parent / "results"
        names = [name for name, _ in jobs("paper")]
        assert len(names) == len(set(names))
        assert set(names) == {path.stem for path in results.glob("*.txt")} - {"ext_live_churn"}


class TestFig12PathLength:
    @pytest.fixture(scope="class")
    def outcome(self):
        return PathLengthExperiment.quick().run()

    def test_mean_hops_near_half_log2(self, outcome):
        for n, stats in outcome.by_peers:
            expected = 0.5 * math.log2(n)
            assert expected - 1.0 <= stats.mean <= expected + 2.5

    def test_hops_grow_with_system_size(self, outcome):
        means = [stats.mean for _, stats in outcome.by_peers]
        assert means[0] < means[-1]

    def test_pdf_is_normalized(self, outcome):
        assert sum(outcome.pdf.probabilities().values()) == pytest.approx(1.0)

    def test_report_renders(self, outcome):
        text = outcome.report()
        assert "Figure 12a" in text and "Figure 12b" in text


class TestExtensions:
    @pytest.fixture(scope="class")
    def local_index_outcome(self):
        return LocalIndexExperiment.quick().run()

    def test_local_index_never_hurts(self, local_index_outcome):
        for _, bucket_only, local_index in local_index_outcome.rows:
            assert local_index >= bucket_only - 1.0  # allow tiny noise

    def test_local_index_best_with_one_peer(self, local_index_outcome):
        by_peers = {n: local for n, _, local in local_index_outcome.rows}
        assert by_peers[1] >= max(by_peers.values()) - 1.0

    def test_adaptive_padding_beats_no_padding(self):
        outcome = AdaptivePaddingExperiment.quick().run()
        rows = {name: full for name, full, _ in outcome.rows}
        assert rows["adaptive"] >= rows["fixed 0%"] - 1.0

    def test_ideal_family_has_fewer_misses_than_linear(self):
        outcome = IdealFamilyAblation(
            families=("table", "approx-min-wise"), scale="quick"
        ).run()
        table = outcome.outcomes["table"]
        assert table.good_match_percentage() > 0.0
        assert "Ablation" in outcome.report()


class TestMoreExtensions:
    def test_composite_answers_never_lose_recall(self):
        from repro.experiments.ext_composite import CompositeAnswerExperiment

        outcome = CompositeAnswerExperiment.quick().run()
        assert outcome.mean_gain >= 0.0
        assert all(
            c >= s - 1e-12
            for s, c in zip(outcome.single_recalls, outcome.composite_recalls)
        )
        assert "composing" in outcome.report()

    def test_overlay_comparison_quick(self):
        from repro.experiments.ext_overlay_compare import (
            OverlayComparisonExperiment,
        )

        outcome = OverlayComparisonExperiment.quick().run()
        # Quality is overlay-independent by construction.
        assert outcome.quality["chord"] == pytest.approx(
            outcome.quality["can"], abs=1e-9
        )
        assert "Chord vs CAN" in outcome.report()

    def test_churn_recall_replication_beats_unreplicated(self):
        from repro.experiments.ext_churn_recall import ChurnRecallExperiment

        experiment = ChurnRecallExperiment.quick()
        outcome = experiment.run()
        worst = max(experiment.crash_fractions)
        assert outcome.recall_drop("r=1", worst) > 0.0
        assert outcome.recall_drop("r=3+repair", worst) < 0.05
        assert outcome.cell("r=3+repair", worst).failovers > 0
        assert "recall under churn" in outcome.report()

    def test_overload_protections_degrade_gracefully(self):
        from repro.experiments.ext_overload import OverloadExperiment

        experiment = OverloadExperiment(
            n_peers=60, timed_queries=60, warmup_queries=40
        )
        outcome = experiment.run()
        heavy = max(experiment.load_factors)
        slow = max(experiment.slow_fractions)
        protected = outcome.cell(True, heavy, slow)
        unprotected = outcome.cell(False, heavy, slow)
        # The protections engage under stress and cut the tail...
        assert protected.hedges > 0 and protected.hedge_wins > 0
        assert protected.partial_queries > 0
        assert protected.p99_ms < unprotected.p99_ms
        # ...without giving up answers.
        assert protected.mean_recall >= outcome.baseline().mean_recall - 0.05
        assert protected.mean_recall >= unprotected.mean_recall
        assert "overload protection" in outcome.report()

    def test_linear_catches_up_under_repetition(self):
        """Section 5.1: "As the system evolves, the probability that
        identical queries had been asked earlier goes higher and linear
        permutations will tend to produce better results."  Under a skewed
        (repeating) workload, linear's exact-match fraction rises to meet
        the stronger families'."""
        from repro.core.config import SystemConfig
        from repro.core.system import RangeSelectionSystem
        from repro.metrics.collector import QueryLog
        from repro.workloads.generators import ZipfRangeWorkload

        results = {}
        domain = SystemConfig().domain
        trace = ZipfRangeWorkload(domain, 800, seed=66, pool_size=120).ranges()
        for family in ("linear", "min-wise"):
            system = RangeSelectionSystem(
                SystemConfig(n_peers=60, family=family, seed=67)
            )
            log = QueryLog()
            for query in trace:
                log.add(system.query(query))
            results[family] = log.exact_fraction()
        assert results["linear"] >= results["min-wise"] * 0.95
        assert results["linear"] > 0.3


class TestQualityInternals:
    def test_shared_trace_is_actually_shared(self):
        exp = MatchQualityExperiment.quick("linear")
        trace = exp.workload()
        exp2 = MatchQualityExperiment.quick("min-wise")
        exp2.trace = trace
        assert list(exp2.workload()) == list(trace)

    def test_good_match_percentage_counts_misses_in_denominator(self):
        outcome = MatchQualityExperiment.quick("approx-min-wise").run()
        assert outcome.good_match_percentage() <= 100.0 - outcome.miss_percentage()
