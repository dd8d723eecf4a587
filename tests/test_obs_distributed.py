"""Distributed tracing and telemetry primitives (no sockets needed).

The cross-process pieces — context on the wire, fragments over the
telemetry RPC, SIGKILL'd traced queries — are drilled in
``test_rpc_wire.py`` and ``test_rpc_cluster.py``; this module pins the
pure logic: the tolerant context codec, the flight recorder's bounds and
dumps, the torn-line JSONL reader, wall-to-trace-clock stitching (with
orphans and clock skew), and the snapshot-merge arithmetic behind the
cluster dashboard.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.distributed import (
    SKEW_TOLERANCE_MS,
    FlightRecorder,
    SpanFragment,
    TraceContext,
    bucket_quantile,
    cluster_histogram,
    counter_series,
    counter_total,
    format_trace,
    histogram_quantiles,
    load_skew,
    merge_histogram_series,
    new_trace_id,
    read_jsonl_tolerant,
    stitch_trace,
    wall_ms,
)
from repro.obs.trace import NULL_TRACE, QueryTrace


# -- trace context codec -----------------------------------------------------


def test_trace_context_round_trips_through_wire_form():
    ctx = TraceContext("abc123", "span-9", sampled=True)
    back = TraceContext.from_wire(ctx.to_wire())
    assert back is not None
    assert back.trace_id == "abc123"
    assert back.parent_span_id == "span-9"
    assert back.sampled is True


def test_trace_context_child_reparents_same_identity():
    ctx = TraceContext("abc123", "root", sampled=False)
    child = ctx.child("leaf")
    assert child.trace_id == "abc123"
    assert child.parent_span_id == "leaf"
    assert child.sampled is False


@pytest.mark.parametrize(
    "garbage",
    [
        None,
        "not-a-dict",
        42,
        [],
        {},
        {"id": None},
        {"id": ""},
        {"id": 7},
        {"span": "orphaned-span-without-id"},
    ],
)
def test_garbled_trace_envelope_reads_as_untraced(garbage):
    # The wire-compat rule: a bad envelope degrades, it never raises.
    assert TraceContext.from_wire(garbage) is None


def test_non_string_span_id_is_dropped_not_fatal():
    ctx = TraceContext.from_wire({"id": "abc", "span": 123})
    assert ctx is not None
    assert ctx.trace_id == "abc"
    assert ctx.parent_span_id is None


def test_null_trace_has_no_trace_identity():
    # The engine short-circuits on this: untraced queries put zero trace
    # bytes on the wire.
    assert NULL_TRACE.trace_id is None
    assert NULL_TRACE.span_id is None


def test_new_trace_ids_are_distinct():
    assert new_trace_id() != new_trace_id()


# -- span fragments and the flight recorder ----------------------------------


def test_span_fragment_round_trips_through_dict():
    fragment = SpanFragment(
        "serve:match-request",
        "peer-3",
        trace_id="t1",
        parent_span_id="p1",
        attrs={"kind": "match-request"},
    )
    fragment.event("dequeued", depth=2)
    fragment.end(outcome="ok")
    back = SpanFragment.from_dict(
        json.loads(json.dumps(fragment.to_dict()))
    )
    assert back.name == fragment.name
    assert back.node == "peer-3"
    assert back.trace_id == "t1"
    assert back.parent_span_id == "p1"
    assert back.span_id == fragment.span_id
    assert back.attrs["outcome"] == "ok"
    assert [event["name"] for event in back.events] == ["dequeued"]
    assert back.duration_ms == pytest.approx(fragment.duration_ms)


def test_fragment_end_is_idempotent():
    fragment = SpanFragment("s", "n")
    first = fragment.end().end_wall_ms
    assert fragment.end().end_wall_ms == first


def test_flight_recorder_is_bounded_and_filters_by_trace():
    recorder = FlightRecorder("peer-0", capacity=4)
    for index in range(10):
        recorder.record_span(
            SpanFragment(f"s{index}", "peer-0", trace_id="keep").end()
        )
    recorder.record_event("breaker", peer=7)
    assert len(recorder) == 4
    assert recorder.recorded == 11
    spans = recorder.spans_for("keep")
    assert [entry["name"] for entry in spans] == ["s7", "s8", "s9"]
    assert recorder.spans_for("other-trace") == []
    assert len(recorder.recent(limit=2)) == 2


def test_flight_recorder_recent_zero_is_empty_and_negative_is_refused():
    recorder = FlightRecorder("peer-0", capacity=8)
    for index in range(5):
        recorder.record_event("tick", index=index)
    assert recorder.recent(0) == []
    assert [entry["attrs"]["index"] for entry in recorder.recent(2)] == [3, 4]
    assert len(recorder.recent(99)) == len(recorder.recent()) == 5
    with pytest.raises(ValueError):
        recorder.recent(-2)


def test_flight_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder("peer-0", capacity=0)


def test_flight_dump_appends_jsonl_with_marker(tmp_path):
    recorder = FlightRecorder("peer-0", capacity=8)
    recorder.record_span(SpanFragment("s", "peer-0", trace_id="t").end())
    recorder.record_event("swim-suspect", target="peer-1")
    path = str(tmp_path / "flight.jsonl")
    written = recorder.dump(path, reason="breaker-open")
    written += recorder.dump(path, reason="confirmed-dead:peer-1")
    assert recorder.dumps == 2
    records, skipped = read_jsonl_tolerant(path)
    assert skipped == 0
    assert len(records) == written
    markers = [r for r in records if r["type"] == "flight-dump"]
    assert [m["reason"] for m in markers] == [
        "breaker-open",
        "confirmed-dead:peer-1",
    ]
    assert any(r["type"] == "span" for r in records)
    assert any(r["type"] == "event" for r in records)


def test_tolerant_reader_skips_torn_and_garbage_lines(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text(
        json.dumps({"type": "span", "name": "ok"})
        + "\n"
        + "[1, 2, 3]\n"  # valid JSON, wrong shape
        + "not json at all\n"
        + "\n"  # blank lines are not records, not errors
        + json.dumps({"type": "event", "name": "also-ok"})
        + "\n"
        + '{"type": "span", "name": "torn-by-sigk',  # no newline: torn
        encoding="utf-8",
    )
    records, skipped = read_jsonl_tolerant(str(path))
    assert [r["name"] for r in records] == ["ok", "also-ok"]
    assert skipped == 3


# -- stitching ---------------------------------------------------------------


def make_traced_query():
    """A client trace with a fake clock and one chain span, wall-anchored
    at 1_000_000.0 wall-ms == 0.0 trace-ms."""
    clock = {"now": 0.0}
    trace = QueryTrace(
        "query", clock=lambda: clock["now"], trace_id="trace-1"
    )
    trace.root.attrs["wall_start_ms"] = 1_000_000.0
    chain = trace.span("chain", identifier=42)
    clock["now"] = 50.0
    chain.end()
    clock["now"] = 60.0
    trace.end()
    return trace, chain


def test_stitch_attaches_fragment_under_issuing_span():
    trace, chain = make_traced_query()
    fragment = SpanFragment(
        "serve:match-request",
        "peer-2",
        trace_id="trace-1",
        parent_span_id=chain.span_id,
        start_wall_ms=1_000_010.0,
        end_wall_ms=1_000_030.0,
    )
    fragment.events.append(
        {"name": "scored", "at_wall_ms": 1_000_020.0, "attrs": {"hits": 3}}
    )
    report = stitch_trace(trace, [fragment])
    assert report.attached == 1
    assert report.orphans == 0
    assert report.nodes == {"peer-2"}
    assert report.skew_suspects == []
    (remote,) = chain.children
    assert remote.name == "serve:match-request"
    assert remote.attrs["remote"] is True
    assert remote.attrs["node"] == "peer-2"
    # Wall times mapped onto the client's trace clock via the anchor.
    assert remote.start_ms == pytest.approx(10.0)
    assert remote.end_ms == pytest.approx(30.0)
    assert remote.events[0].at_ms == pytest.approx(20.0)


def test_stitch_accepts_dict_fragments_as_shipped_by_telemetry():
    trace, chain = make_traced_query()
    doc = SpanFragment(
        "serve:store-request",
        "peer-1",
        trace_id="trace-1",
        parent_span_id=chain.span_id,
        start_wall_ms=1_000_001.0,
        end_wall_ms=1_000_002.0,
    ).to_dict()
    report = stitch_trace(trace, [doc])
    assert report.attached == 1
    assert chain.children[0].attrs["node"] == "peer-1"


def test_stitch_orphans_unknown_parents_under_root():
    trace, _chain = make_traced_query()
    orphan = SpanFragment(
        "serve:match-request",
        "peer-9",
        trace_id="trace-1",
        parent_span_id="no-such-span",
        start_wall_ms=1_000_005.0,
        end_wall_ms=1_000_006.0,
    )
    report = stitch_trace(trace, [orphan])
    assert report.attached == 1
    assert report.orphans == 1
    attached = trace.root.children[-1]
    assert attached.attrs["orphan"] is True


def test_stitch_flags_clock_skew_beyond_tolerance():
    trace, chain = make_traced_query()
    ahead = 100.0 + SKEW_TOLERANCE_MS  # chain window is [0, 50] trace-ms
    fragment = SpanFragment(
        "serve:match-request",
        "peer-5",
        trace_id="trace-1",
        parent_span_id=chain.span_id,
        start_wall_ms=1_000_000.0 + ahead,
        end_wall_ms=1_000_000.0 + ahead + 1.0,
    )
    report = stitch_trace(trace, [fragment])
    assert len(report.skew_suspects) == 1
    node, overshoot = report.skew_suspects[0]
    assert node == "peer-5"
    assert overshoot > SKEW_TOLERANCE_MS
    assert chain.children[0].attrs["clock_skew_ms"] == pytest.approx(
        overshoot
    )
    assert report.to_dict()["skew_suspects"][0]["node"] == "peer-5"


def test_format_trace_shows_remote_nodes_and_orphans():
    trace, chain = make_traced_query()
    stitch_trace(
        trace,
        [
            SpanFragment(
                "serve:match-request",
                "peer-2",
                trace_id="trace-1",
                parent_span_id=chain.span_id,
                start_wall_ms=1_000_010.0,
                end_wall_ms=1_000_030.0,
            ),
            SpanFragment(
                "serve:store-request",
                "peer-4",
                trace_id="trace-1",
                parent_span_id="gone",
                start_wall_ms=1_000_010.0,
                end_wall_ms=1_000_011.0,
            ),
        ],
    )
    text = format_trace(trace)
    assert "trace trace-1" in text
    assert "@peer-2" in text
    assert "orphan" in text
    assert "serve:match-request" in text


# -- telemetry snapshot merging ----------------------------------------------


def snapshot(requests: float, counts: list[int]) -> dict:
    return {
        "metrics": [
            {
                "name": "server.requests",
                "kind": "counter",
                "series": [
                    {"labels": {"kind": "match-request"}, "value": requests},
                    {"labels": {"kind": "hello"}, "value": 1.0},
                ],
            },
            {
                "name": "server.service_ms",
                "kind": "histogram",
                "edges": [1.0, 10.0, 100.0],
                "series": [
                    {
                        "labels": {"kind": "match-request"},
                        "count": sum(counts),
                        "sum": float(sum(counts)),
                        "max": 9.0,
                        "counts": counts,
                    }
                ],
            },
        ]
    }


def test_counter_total_and_series():
    snap = snapshot(5.0, [0, 0, 0, 0])
    assert counter_total(snap, "server.requests") == pytest.approx(6.0)
    series = counter_series(snap, "server.requests")
    assert series["kind=match-request"] == pytest.approx(5.0)
    assert series["kind=hello"] == pytest.approx(1.0)
    assert counter_total(snap, "no.such.metric") == 0.0


def test_merge_histograms_bucketwise_across_nodes():
    merged = merge_histogram_series(
        [snapshot(1.0, [1, 2, 0, 0]), snapshot(1.0, [0, 2, 4, 1])],
        "server.service_ms",
    )
    assert merged is not None
    assert merged["edges"] == [1.0, 10.0, 100.0]
    assert merged["counts"] == [1, 4, 4, 1]
    assert merged["count"] == 10
    assert merged["max"] == pytest.approx(9.0)


def test_merge_skips_nodes_with_mismatched_edges():
    odd = snapshot(1.0, [5, 0, 0, 0])
    odd["metrics"][1]["edges"] = [2.0, 20.0, 200.0]
    merged = merge_histogram_series(
        [snapshot(1.0, [1, 1, 1, 0]), odd], "server.service_ms"
    )
    assert merged is not None
    assert merged["counts"] == [1, 1, 1, 0]


def test_merge_returns_none_when_no_node_has_the_family():
    assert merge_histogram_series([{"metrics": []}], "x") is None
    assert histogram_quantiles(None) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_bucket_quantile_reads_bucket_upper_edges():
    edges = [1.0, 10.0, 100.0]
    counts = [50, 40, 9, 1]  # overflow bucket holds the last 1%
    assert bucket_quantile(edges, counts, 0.5) == 1.0
    assert bucket_quantile(edges, counts, 0.9) == 10.0
    assert bucket_quantile(edges, counts, 0.95) == 100.0
    # Overflow reads as the last finite edge, not infinity.
    assert bucket_quantile(edges, counts, 1.0) == 100.0
    assert bucket_quantile(edges, [0, 0, 0, 0], 0.5) == 0.0
    # q = 0 would read the edge of a leading empty bucket, q > 1 the top
    # edge: both are rejected, like any q outside (0, 1].
    for q in (0.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            bucket_quantile([1.0, 10.0], [0, 3, 0], q)


def test_cluster_histogram_summary_shape():
    summary = cluster_histogram(
        [snapshot(1.0, [8, 1, 1, 0])], "server.service_ms"
    )
    assert summary["p50"] == 1.0
    assert summary["count"] == 10
    assert summary["mean"] == pytest.approx(1.0)
    empty = cluster_histogram([], "server.service_ms")
    assert empty["count"] == 0 and empty["mean"] == 0.0


def test_load_skew_matches_health_gini_scale():
    assert load_skew({"a": 5.0, "b": 5.0, "c": 5.0}) == pytest.approx(0.0)
    assert load_skew({"a": 0.0, "b": 0.0, "c": 30.0}) > 0.5


def test_wall_ms_is_monotone_enough_to_order_fragments():
    a = wall_ms()
    b = wall_ms()
    assert b >= a
