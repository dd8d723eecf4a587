"""Distributed tracing and cluster telemetry primitives.

The paper's query is a fan-out: ``l`` independent lookup chains, each
O(log N) hops, each hop a real TCP request since the live transport
landed.  A client-side :class:`~repro.obs.trace.QueryTrace` sees only its
half of every exchange — the send, the wait, the reply — while the work
that actually costs time (queue wait, match scoring, store placement)
happens inside another OS process.  This module carries trace identity
across that boundary and back:

``TraceContext``
    The W3C-traceparent-shaped envelope (trace id, parent span id,
    sampling flag) that rides as an *optional* field on wire requests.
    Old peers ignore unknown fields; new peers treat a missing or
    garbled context as "untraced" — propagation can only ever add
    information, never break a query.

``SpanFragment``
    One server-side span, recorded in *wall-clock* milliseconds (the
    only clock two processes share) and tagged with the trace context it
    served.  Fragments are plain JSON-able records so they survive the
    telemetry RPC and flight-recorder dumps unchanged.

``FlightRecorder``
    A bounded ring buffer of recent fragments and point events on every
    server — cheap enough to run always-on, rich enough to dump to JSONL
    the moment a breaker opens or SWIM evicts a member.

``stitch_trace``
    Grafts collected fragments back into the client's trace tree under
    the spans that issued the requests, mapping server wall time onto
    the client's trace clock via the wall anchor the client recorded at
    trace start, and flagging cross-node clock skew when a child span
    claims to run outside its parent's window.

The telemetry-merge helpers at the bottom turn per-node registry
snapshots (shape: :meth:`repro.obs.registry.MetricsRegistry.snapshot`)
into cluster-level aggregates: summed counters, merged histogram buckets
with p50/p95/p99, and Gini load skew over per-node request counts —
reusing :func:`repro.obs.health.gini` so the live cluster and the
simulator report skew on the same scale.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from repro.obs.registry import bucket_quantile
from repro.obs.trace import QueryTrace, Span
from repro.util.tolerant import read_jsonl_tolerant

__all__ = [
    "TraceContext",
    "SpanFragment",
    "FlightRecorder",
    "StitchReport",
    "new_trace_id",
    "wall_ms",
    "stitch_trace",
    "read_jsonl_tolerant",
    "counter_total",
    "counter_series",
    "merge_histogram_series",
    "bucket_quantile",
    "histogram_quantiles",
    "cluster_histogram",
    "load_skew",
    "format_trace",
]


def new_trace_id() -> str:
    """A cluster-unique trace id (16 hex chars is plenty for one run)."""
    return uuid.uuid4().hex[:16]


def wall_ms() -> float:
    """Wall-clock milliseconds — the only clock shared across processes."""
    return time.time() * 1000.0


class TraceContext:
    """Trace identity carried on the wire alongside a request.

    Wire form (the optional ``"trace"`` envelope field)::

        {"id": "<trace id>", "span": "<parent span id>", "sampled": true}

    The codec is deliberately forgiving: :meth:`from_wire` returns
    ``None`` for anything that is not a dict carrying a string id —
    a garbled envelope degrades the request to untraced, it never
    errors (wire-compat rule, DESIGN §14).
    """

    __slots__ = ("trace_id", "parent_span_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        parent_span_id: str | None = None,
        sampled: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.sampled = sampled

    def child(self, parent_span_id: str | None) -> "TraceContext":
        """The same trace identity re-parented under another span."""
        return TraceContext(self.trace_id, parent_span_id, self.sampled)

    def to_wire(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"id": self.trace_id, "sampled": self.sampled}
        if self.parent_span_id is not None:
            doc["span"] = self.parent_span_id
        return doc

    @classmethod
    def from_wire(cls, doc: Any) -> "TraceContext | None":
        """Decode a wire envelope; anything malformed reads as untraced."""
        if not isinstance(doc, dict):
            return None
        trace_id = doc.get("id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span = doc.get("span")
        if span is not None and not isinstance(span, str):
            span = None
        return cls(trace_id, span, bool(doc.get("sampled", True)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceContext({self.trace_id!r}, span={self.parent_span_id!r}, "
            f"sampled={self.sampled})"
        )


class SpanFragment:
    """One server-side span, timed in wall-clock ms and JSON-able.

    Fragments are what the telemetry RPC ships and the flight recorder
    dumps; :func:`stitch_trace` turns them back into :class:`Span` nodes
    under the client spans that issued the requests.
    """

    __slots__ = (
        "name", "node", "trace_id", "parent_span_id", "span_id",
        "start_wall_ms", "end_wall_ms", "attrs", "events",
    )

    def __init__(
        self,
        name: str,
        node: str,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        span_id: str | None = None,
        start_wall_ms: float | None = None,
        end_wall_ms: float | None = None,
        attrs: dict[str, Any] | None = None,
        events: list[dict[str, Any]] | None = None,
    ) -> None:
        self.name = name
        self.node = node
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.span_id = span_id or f"frag-{uuid.uuid4().hex[:12]}"
        self.start_wall_ms = wall_ms() if start_wall_ms is None else start_wall_ms
        self.end_wall_ms = end_wall_ms
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.events: list[dict[str, Any]] = list(events or [])

    def event(self, name: str, **attrs: Any) -> None:
        """Record a wall-clock point event on this fragment."""
        self.events.append({"name": name, "at_wall_ms": wall_ms(), "attrs": attrs})

    def end(self, **attrs: Any) -> "SpanFragment":
        """Close the fragment (idempotent); extra attrs merge in."""
        if attrs:
            self.attrs.update(attrs)
        if self.end_wall_ms is None:
            self.end_wall_ms = wall_ms()
        return self

    @property
    def duration_ms(self) -> float:
        if self.end_wall_ms is None:
            return 0.0
        return self.end_wall_ms - self.start_wall_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "node": self.node,
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "span_id": self.span_id,
            "start_wall_ms": self.start_wall_ms,
            "end_wall_ms": self.end_wall_ms,
            "attrs": self.attrs,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SpanFragment":
        return cls(
            name=str(doc.get("name", "span")),
            node=str(doc.get("node", "?")),
            trace_id=doc.get("trace_id"),
            parent_span_id=doc.get("parent_span_id"),
            span_id=doc.get("span_id"),
            start_wall_ms=float(doc.get("start_wall_ms", 0.0)),
            end_wall_ms=doc.get("end_wall_ms"),
            attrs=doc.get("attrs") or {},
            events=doc.get("events") or [],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SpanFragment({self.name!r}, node={self.node!r}, "
            f"trace={self.trace_id!r})"
        )


class FlightRecorder:
    """Bounded ring buffer of recent span fragments and point events.

    Every server runs one, always-on: recording is an O(1) deque append,
    memory is capped by ``capacity``, and the whole buffer dumps to JSONL
    in one pass when something goes wrong (breaker opens, SWIM evicts a
    member) — the black box you read *after* the crash.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, node: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.node = node
        self.capacity = capacity
        self._entries: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.recorded = 0
        self.dumps = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record_span(self, fragment: SpanFragment) -> SpanFragment:
        """Retain one (finished or still-open) span fragment."""
        self.record_span_entry({"type": "span", **fragment.to_dict()})
        return fragment

    def record_span_entry(self, entry: dict[str, Any]) -> None:
        """Retain a span already in entry form, ``{"type": "span",
        **SpanFragment.to_dict()}`` — a server's request path fills that
        dict in directly, one per request, with no object in between."""
        self._entries.append(entry)
        self.recorded += 1

    def record_event(self, name: str, **attrs: Any) -> None:
        """Retain one standalone point event (breaker flip, eviction...)."""
        self._entries.append(
            {
                "type": "event",
                "name": name,
                "node": self.node,
                "at_wall_ms": wall_ms(),
                "attrs": attrs,
            }
        )
        self.recorded += 1

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The newest ``limit`` entries, oldest first (all when None).

        ``limit`` can come off the wire (the ``telemetry`` RPC's
        ``spans``), so a negative one is refused rather than read as a
        slice from the front.
        """
        entries = list(self._entries)
        if limit is None:
            return entries
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        return entries[max(0, len(entries) - limit):]

    def spans_for(self, trace_id: str) -> list[dict[str, Any]]:
        """Retained span entries belonging to one distributed trace."""
        return [
            entry
            for entry in self._entries
            if entry.get("type") == "span" and entry.get("trace_id") == trace_id
        ]

    def dump(self, path: str, reason: str = "") -> int:
        """Append the whole buffer to ``path`` as JSONL; returns lines written.

        Appending (not truncating) means one file accumulates every
        incident of a server's lifetime; each dump is bracketed by a
        ``flight-dump`` marker entry carrying the reason.
        """
        entries = list(self._entries)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "type": "flight-dump",
                        "node": self.node,
                        "reason": reason,
                        "at_wall_ms": wall_ms(),
                        "entries": len(entries),
                    }
                )
            )
            handle.write("\n")
            for entry in entries:
                handle.write(json.dumps(entry, default=str))
                handle.write("\n")
        self.dumps += 1
        return len(entries) + 1


# Torn-tail-tolerant JSONL reading is shared with the storage WAL; the
# canonical implementation lives in ``repro.util.tolerant`` and is
# re-exported here for the flight-recorder tooling that grew up with it.


# ----------------------------------------------------------------------
# Stitching: server fragments back into the client's trace tree
# ----------------------------------------------------------------------


class StitchReport:
    """What :func:`stitch_trace` did: attach counts and skew evidence."""

    __slots__ = ("attached", "orphans", "nodes", "skew_suspects")

    def __init__(self) -> None:
        self.attached = 0
        self.orphans = 0
        self.nodes: set[str] = set()
        #: (node, overshoot_ms) pairs where a mapped server span fell
        #: outside its parent's window — the smoking gun of clock skew.
        self.skew_suspects: list[tuple[str, float]] = []

    def to_dict(self) -> dict[str, Any]:
        return {
            "attached": self.attached,
            "orphans": self.orphans,
            "nodes": sorted(self.nodes),
            "skew_suspects": [
                {"node": node, "overshoot_ms": overshoot}
                for node, overshoot in self.skew_suspects
            ],
        }


#: Wall-to-trace mapping tolerance before flagging clock skew: two boxes
#: disagreeing by less than this is indistinguishable from queue jitter.
SKEW_TOLERANCE_MS = 5.0


def stitch_trace(
    trace: QueryTrace,
    fragments: Iterable[SpanFragment | dict[str, Any]],
) -> StitchReport:
    """Graft server-side span fragments into a client trace tree.

    Each fragment names the client span that issued its request
    (``parent_span_id``); the fragment becomes a child :class:`Span` of
    that span, marked ``remote=True`` with its origin node.  Server wall
    times map onto the client's trace clock through the wall anchor the
    client stamped on the root span (``wall_start_ms`` attr) — and when
    the mapped interval overflows the parent's own window by more than
    :data:`SKEW_TOLERANCE_MS`, the overshoot is recorded as clock-skew
    evidence on both the span and the returned :class:`StitchReport`.

    Fragments whose parent span is not in the tree (the issuing process
    died, or the id was truncated) attach under the root as orphans —
    stitching is salvage, it never throws data away.
    """
    report = StitchReport()
    by_id: dict[str, Span] = {}
    for span in trace.root.walk():
        by_id[span.span_id] = span

    anchor_wall = trace.root.attrs.get("wall_start_ms")
    anchor_trace = trace.root.start_ms

    def to_trace_clock(wall: float | None) -> float | None:
        if wall is None or anchor_wall is None:
            return wall
        return anchor_trace + (float(wall) - float(anchor_wall))

    for item in fragments:
        fragment = (
            item if isinstance(item, SpanFragment) else SpanFragment.from_dict(item)
        )
        parent = by_id.get(fragment.parent_span_id or "")
        orphan = parent is None
        if parent is None:
            parent = trace.root
            report.orphans += 1
        start = to_trace_clock(fragment.start_wall_ms)
        end = to_trace_clock(fragment.end_wall_ms)
        child = Span.__new__(Span)
        child.name = fragment.name
        child._clock = trace.clock
        child.attrs = dict(fragment.attrs)
        child.attrs["remote"] = True
        child.attrs["node"] = fragment.node
        if orphan:
            child.attrs["orphan"] = True
        child.start_ms = float(start if start is not None else parent.start_ms)
        child.end_ms = float(end) if end is not None else child.start_ms
        child.events = []
        child.children = []
        child.span_id = fragment.span_id
        for event in fragment.events:
            at = to_trace_clock(event.get("at_wall_ms"))
            child.events.append(
                _remote_event(
                    str(event.get("name", "event")),
                    float(at) if at is not None else child.start_ms,
                    dict(event.get("attrs") or {}),
                )
            )
        if not orphan:
            overshoot = _window_overshoot(parent, child)
            if overshoot > SKEW_TOLERANCE_MS:
                child.attrs["clock_skew_ms"] = round(overshoot, 3)
                report.skew_suspects.append((fragment.node, round(overshoot, 3)))
        parent.children.append(child)
        by_id[child.span_id] = child
        report.attached += 1
        report.nodes.add(fragment.node)
    return report


def _remote_event(name: str, at_ms: float, attrs: dict[str, Any]):
    from repro.obs.trace import TraceEvent

    return TraceEvent(name, at_ms, attrs)


def _window_overshoot(parent: Span, child: Span) -> float:
    """How far the child's interval sticks out of the parent's window."""
    overshoot = 0.0
    if child.start_ms < parent.start_ms:
        overshoot = max(overshoot, parent.start_ms - child.start_ms)
    if parent.end_ms is not None and child.end_ms is not None:
        if child.end_ms > parent.end_ms:
            overshoot = max(overshoot, child.end_ms - parent.end_ms)
    return overshoot


# ----------------------------------------------------------------------
# Telemetry snapshot merging (per-node registry snapshots -> cluster view)
# ----------------------------------------------------------------------


def _metric_families(snapshot: dict[str, Any], name: str) -> Iterator[dict[str, Any]]:
    for family in snapshot.get("metrics", []):
        if family.get("name") == name:
            yield family


def counter_total(snapshot: dict[str, Any], name: str) -> float:
    """Sum of every series of one counter/gauge family in a snapshot."""
    total = 0.0
    for family in _metric_families(snapshot, name):
        for series in family.get("series", []):
            total += float(series.get("value", 0) or 0)
    return total


def counter_series(snapshot: dict[str, Any], name: str) -> dict[str, float]:
    """Label-rendered ``{series: value}`` map of one counter family."""
    out: dict[str, float] = {}
    for family in _metric_families(snapshot, name):
        for series in family.get("series", []):
            labels = series.get("labels") or {}
            key = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
            out[key] = out.get(key, 0.0) + float(series.get("value", 0) or 0)
    return out


def merge_histogram_series(
    snapshots: Iterable[dict[str, Any]], name: str
) -> dict[str, Any] | None:
    """Merge one histogram family across node snapshots, bucket-wise.

    All nodes run the same code so their edge ladders agree; a node whose
    edges differ (mid-rolling-upgrade) is skipped rather than corrupting
    the merge.  Returns ``{"edges", "counts", "count", "sum", "max"}`` or
    ``None`` when no node recorded the family.
    """
    edges: list[float] | None = None
    counts: list[int] = []
    count = 0
    total = 0.0
    peak = 0.0
    for snapshot in snapshots:
        for family in _metric_families(snapshot, name):
            family_edges = [float(e) for e in family.get("edges", [])]
            if edges is None:
                edges = family_edges
                counts = [0] * (len(edges) + 1)
            elif family_edges != edges:
                continue
            for series in family.get("series", []):
                series_counts = series.get("counts") or []
                for i, c in enumerate(series_counts[: len(counts)]):
                    counts[i] += int(c)
                count += int(series.get("count", 0) or 0)
                total += float(series.get("sum", 0.0) or 0.0)
                peak = max(peak, float(series.get("max", 0.0) or 0.0))
    if edges is None:
        return None
    return {"edges": edges, "counts": counts, "count": count, "sum": total, "max": peak}


def histogram_quantiles(
    merged: dict[str, Any] | None, qs: Iterable[float] = (0.5, 0.95, 0.99)
) -> dict[str, float]:
    """p50/p95/p99-style summary of a merged histogram (zeros when empty)."""
    out: dict[str, float] = {}
    for q in qs:
        key = f"p{int(round(q * 100))}"
        if merged is None:
            out[key] = 0.0
        else:
            out[key] = bucket_quantile(merged["edges"], merged["counts"], q)
    return out


def cluster_histogram(
    snapshots: Iterable[dict[str, Any]], name: str
) -> dict[str, Any]:
    """Merged histogram + quantiles + mean for one family across nodes."""
    merged = merge_histogram_series(list(snapshots), name)
    summary = histogram_quantiles(merged)
    if merged is not None and merged["count"]:
        summary["mean"] = merged["sum"] / merged["count"]
        summary["count"] = merged["count"]
        summary["max"] = merged["max"]
    else:
        summary["mean"] = 0.0
        summary["count"] = 0
        summary["max"] = 0.0
    return summary


def load_skew(per_node_load: dict[str, float]) -> float:
    """Gini coefficient over per-node load — 0 balanced, →1 skewed."""
    from repro.obs.health import gini

    return gini(list(per_node_load.values()))


# ----------------------------------------------------------------------
# Pretty-printing stitched traces
# ----------------------------------------------------------------------


def format_trace(
    trace: QueryTrace | dict[str, Any],
    *,
    max_events: int = 4,
) -> str:
    """Render a (stitched) trace tree as indented text.

    Remote spans show their origin node; events render inline, capped at
    ``max_events`` per span with an elision marker, so a deep fan-out
    trace stays readable on a terminal.
    """
    doc = trace.to_dict() if isinstance(trace, QueryTrace) else trace
    lines: list[str] = []
    trace_id = doc.get("trace_id")
    if trace_id:
        lines.append(f"trace {trace_id}")

    def walk(span: dict[str, Any], depth: int) -> None:
        indent = "  " * depth
        attrs = span.get("attrs") or {}
        tags: list[str] = []
        if attrs.get("remote"):
            tags.append(f"@{attrs.get('node', '?')}")
        if attrs.get("orphan"):
            tags.append("orphan")
        if "clock_skew_ms" in attrs:
            tags.append(f"skew~{attrs['clock_skew_ms']}ms")
        for key in ("identifier", "owner", "kind", "outcome", "queries"):
            if key in attrs:
                tags.append(f"{key}={attrs[key]}")
        suffix = f" [{' '.join(tags)}]" if tags else ""
        duration = span.get("duration_ms")
        lines.append(
            f"{indent}{span.get('name', '?')}"
            f" ({duration:.1f}ms){suffix}"
            if isinstance(duration, (int, float))
            else f"{indent}{span.get('name', '?')}{suffix}"
        )
        events = span.get("events") or []
        shown = events[:max_events]
        for event in shown:
            eattrs = event.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(eattrs.items()))
            lines.append(
                f"{indent}  · {event.get('name', '?')}"
                + (f" {detail}" if detail else "")
            )
        if len(events) > max_events:
            lines.append(f"{indent}  · ... {len(events) - max_events} more events")
        for child in span.get("spans") or []:
            walk(child, depth + 1)

    walk(doc, 0)
    return "\n".join(lines)
