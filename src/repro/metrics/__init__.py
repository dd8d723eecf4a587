"""Experiment metrics: per-query logs and the paper's summary statistics."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "QueryLog": "repro.metrics.collector",
    "recall_cdf": "repro.metrics.recall",
    "recall_comparison": "repro.metrics.recall",
    "fraction_fully_answered": "repro.metrics.recall",
    "fraction_at_least": "repro.metrics.recall",
    "format_table": "repro.metrics.report",
    "format_series": "repro.metrics.report",
    "format_histogram": "repro.metrics.report",
    "format_recall_cdf": "repro.metrics.report",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
