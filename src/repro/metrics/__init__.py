"""Experiment metrics: per-query logs and the paper's summary statistics."""

from repro.metrics.collector import QueryLog, QueryRecord
from repro.metrics.latency import (
    LatencyCollector,
    PhasePercentiles,
    phase_percentiles,
)
from repro.metrics.recall import (
    recall_cdf,
    recall_comparison,
    fraction_fully_answered,
    fraction_at_least,
)
from repro.metrics.report import (
    format_histogram,
    format_recall_cdf,
    format_series,
    format_table,
)

__all__ = [
    "QueryLog",
    "QueryRecord",
    "LatencyCollector",
    "PhasePercentiles",
    "phase_percentiles",
    "recall_cdf",
    "recall_comparison",
    "fraction_fully_answered",
    "fraction_at_least",
    "format_table",
    "format_series",
    "format_histogram",
    "format_recall_cdf",
]
