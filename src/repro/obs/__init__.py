"""Observability: tracing, the unified metrics registry, and ring health.

``repro.obs`` is the one place per-query cost and system health become
visible.  The :class:`QueryTrace` records a single query end to end —
group hashing, each of the ``l`` lookup chains hop by hop, match scores,
failovers, retries and the store-on-miss fan-out — on both the
synchronous (:mod:`repro.core.system`) and event-driven
(:mod:`repro.sim.query`) paths.  The :class:`MetricsRegistry` unifies the
formerly disjoint counter objects (``TrafficStats``, ``SystemCounters``)
behind one export surface: JSON/JSONL dumps and the ``repro metrics``
CLI report.  The :mod:`repro.obs.health` module
adds continuous visibility: a :class:`TelemetrySampler` writing ring
time series, a :class:`RingAuditor` checking overlay invariants, and
load-skew analytics over per-node load.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "HistogramMetric": "repro.obs.registry",
    "TimeSeriesMetric": "repro.obs.registry",
    "LabeledCounterDict": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "RegistryBackedCounters": "repro.obs.registry",
    "registry_field": "repro.obs.registry",
    "write_jsonl": "repro.obs.registry",
    "NULL_TRACE": "repro.obs.trace",
    "QueryTrace": "repro.obs.trace",
    "Span": "repro.obs.trace",
    "TraceEvent": "repro.obs.trace",
    "FlightRecorder": "repro.obs.distributed",
    "SpanFragment": "repro.obs.distributed",
    "StitchReport": "repro.obs.distributed",
    "TraceContext": "repro.obs.distributed",
    "format_trace": "repro.obs.distributed",
    "new_trace_id": "repro.obs.distributed",
    "read_jsonl_tolerant": "repro.obs.distributed",
    "stitch_trace": "repro.obs.distributed",
    "AuditFinding": "repro.obs.health",
    "AuditReport": "repro.obs.health",
    "HealthReport": "repro.obs.health",
    "RingAuditor": "repro.obs.health",
    "SkewStats": "repro.obs.health",
    "TelemetrySampler": "repro.obs.health",
    "configure_logging": "repro.obs.log",
    "get_logger": "repro.obs.log",
    "gini": "repro.obs.health",
    "health_check": "repro.obs.health",
    "hot_identifiers": "repro.obs.health",
    "load_histogram": "repro.obs.health",
    "max_mean_ratio": "repro.obs.health",
    "skew_stats": "repro.obs.health",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
