"""Tests for the statistics toolkit."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    DiscretePdf,
    Histogram,
    cdf_points,
    summarize,
)


class TestPercentile:
    """The sample percentile rule ``summarize`` applies: linear
    interpolation between order statistics."""

    def test_median_of_odd_list(self):
        assert summarize([1, 2, 3, 4, 5]).p50 == 3

    def test_extremes(self):
        stats = summarize([10, 20, 30])
        assert (stats.minimum, stats.maximum) == (10, 30)
        assert stats.p01 == pytest.approx(10.2)
        assert stats.p99 == pytest.approx(29.8)


class TestSummarize:
    def test_basic_fields(self):
        stats = summarize(range(1, 101))
        assert stats.count == 100
        assert stats.mean == pytest.approx(50.5)
        assert stats.minimum == 1
        assert stats.maximum == 100
        assert stats.p01 <= stats.p50 <= stats.p95 <= stats.p99
        assert stats.p95 == pytest.approx(95.05)

    def test_as_row_is_p01_mean_p99(self):
        stats = summarize([5.0] * 10)
        assert stats.as_row() == (5.0, 5.0, 5.0)

    def test_empty_is_zero_row(self):
        stats = summarize([])
        assert stats.count == 0
        assert (stats.mean, stats.p50, stats.p95, stats.p99, stats.maximum) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=50))
    def test_percentiles_bracket_mean(self, values):
        stats = summarize(values)
        assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9


class TestHistogram:
    def test_binning_boundaries(self):
        h = Histogram(n_bins=10)
        h.add(0.0)
        h.add(0.05)
        h.add(0.95)
        h.add(1.0)  # the top value lands in the last bin
        assert h.counts[0] == 2
        assert h.counts[9] == 2

    def test_percentages_include_misses_in_denominator(self):
        h = Histogram(n_bins=2)
        h.add(0.9)
        h.add_miss()
        assert h.total == 2
        assert h.percentages() == [0.0, 50.0]
        assert h.miss_percentage() == 50.0

    def test_rejects_out_of_range(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.add(1.5)
        with pytest.raises(ValueError):
            h.add(-0.1)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            Histogram(n_bins=0)

    def test_bin_edges_cover_unit_interval(self):
        h = Histogram(n_bins=4)
        edges = h.bin_edges()
        assert edges[0][0] == 0.0
        assert edges[-1][1] == pytest.approx(1.0)
        for (a, b), (c, _) in zip(edges, edges[1:]):
            assert b == pytest.approx(c)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=100))
    def test_percentages_sum_to_100(self, values):
        h = Histogram()
        for v in values:
            h.add(v)
        assert sum(h.percentages()) == pytest.approx(100.0)


class TestDiscretePdf:
    def test_probabilities_normalize(self):
        pdf = DiscretePdf()
        for value in [1, 1, 2, 3, 3, 3]:
            pdf.add(value)
        probs = pdf.probabilities()
        assert probs[3] == pytest.approx(0.5)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_mean(self):
        pdf = DiscretePdf()
        for value in [2, 4]:
            pdf.add(value)
        assert pdf.mean() == 3.0

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            DiscretePdf().mean()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscretePdf().add(-1)


class TestCdfPoints:
    def test_survival_semantics(self):
        points = dict(cdf_points([1.0, 0.5, 0.0], [1.0, 0.5, 0.0]))
        assert points[1.0] == pytest.approx(100.0 / 3)
        assert points[0.5] == pytest.approx(200.0 / 3)
        assert points[0.0] == pytest.approx(100.0)

    def test_empty_values_give_zero(self):
        assert cdf_points([], [0.5]) == [(0.5, 0.0)]

    def test_monotone_in_decreasing_grid(self):
        values = [0.1, 0.4, 0.9, 1.0]
        grid = [1.0, 0.75, 0.5, 0.25, 0.0]
        ys = [y for _, y in cdf_points(values, grid)]
        assert ys == sorted(ys)
