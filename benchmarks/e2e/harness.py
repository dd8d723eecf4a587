"""Repetitions, metrics and correctness checks of the e2e benchmark.

Load shape: closed loop, one client, one process generating load.  One
*repetition* is set-up (timed as ``setup_s``) -> warm-up queries
(untimed) -> ``gc.collect()`` -> timed phase with per-query wall
latencies, on freshly built state.  :func:`measure` runs three
repetitions on the same inputs and reports medians (the end-to-end
metrics, tracing off); :func:`trace` runs one plain and one traced
repetition plus the isolated probes (the per-layer metrics).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from probes import run_probes
from tracing import ENGINE, ROOT, Tracer
from workloads import Inputs, Sandbox, Workload

__all__ = ["measure", "trace", "REPS"]

REPS = 3
#: Equal parts a latency series is cut into; see :func:`best_decile`.
SEGMENTS = 10
#: Raw spans of this many queries go into the output document.
TRACE_SAMPLE_QUERIES = 1
#: Results re-checked against Jaccard/containment recomputed from ranges.
CHECKED_RESULTS = 200


def best_decile(latencies_s: Sequence[float]) -> tuple[float, float, float]:
    """``(queries/s, p50 ms, p95 ms)`` of a series of per-query wall
    times: the series is cut into ``SEGMENTS`` equal parts, and the
    result is the 90th percentile of the parts' rates and the 10th of
    their latency percentiles.

    The reference box has noisy neighbours: for seconds at a time it runs
    a third slower, and whole-run medians then differ by 20 % from one
    run to the next (p95 by 40 %).  Interference only ever slows the
    program, so the least-disturbed parts are the closest to its own
    speed.  Same inputs give the same parts, so two commits compare like
    with like.
    """
    size = max(1, len(latencies_s) // SEGMENTS)
    rates, p50s, p95s = [], [], []
    for begin in range(0, len(latencies_s) - size + 1, size):
        part = np.asarray(latencies_s[begin:begin + size])
        p50, p95 = np.percentile(part, (50, 95))
        rates.append(size / part.sum())
        p50s.append(p50 * 1e3)
        p95s.append(p95 * 1e3)
    return (
        float(np.percentile(rates, 90)),
        float(np.percentile(p50s, 10)),
        float(np.percentile(p95s, 10)),
    )


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    results: list[Any]
    attempted: int
    failed: int
    messages: int
    #: Whether ``total_ms`` is virtual (sim) time, which must repeat exactly.
    virtual: bool
    #: Live workloads only: the peers' summed RSS and CPU seconds.
    server: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return best_decile(self.latencies_s)[0]

    def counts(self) -> tuple:
        """Everything that must repeat exactly on the same inputs."""
        results = self.results
        return (
            self.attempted,
            self.failed,
            self.messages,
            sum(r.overlay_hops for r in results),
            sum(r.recall for r in results),
            sum(r.exact for r in results),
            sum(r.stored for r in results),
            tuple(r.total_ms for r in results)
            if self.virtual else (),
        )


def _failed(result: Any) -> bool:
    """The sim/live result reports lost chains and stores; the sync
    result has neither field, so there only exceptions count."""
    return bool(getattr(result, "timeouts", 0) or getattr(result, "store_failures", 0))


def run_rep(
    workload: Workload,
    inputs: Inputs,
    sandbox: Sandbox,
    *,
    tracer: Tracer | None = None,
    own_trace: bool = False,
    after_timed: Callable[[Any, Rep], None] | None = None,
) -> Rep:
    """One repetition on freshly built state."""
    started = perf_counter()
    rig = workload.make_rig(inputs, sandbox)
    setup_s = perf_counter() - started
    try:
        for r in inputs.warmup:
            rig.query(r)
        query = rig.query_with_own_trace if own_trace else rig.query
        if tracer is not None:
            rig.instrument(tracer)
            query = tracer.wrap(ROOT, query, root=True)
        live = workload.transport == "live"
        server_before = rig.server_sample() if live else {}
        gc.collect()
        latencies: list[float] = []
        results: list[Any] = []
        raised = 0
        messages = rig.messages()
        cpu = time.process_time()
        begun = perf_counter()
        try:
            for index, r in enumerate(inputs.timed):
                if tracer is not None:
                    tracer.query = index
                start = perf_counter()
                try:
                    results.append(query(r))
                except Exception:  # the loop must survive to count the failure
                    if not raised:
                        traceback.print_exc(file=sys.stderr)
                    raised += 1
                # One slot per query, failed or not: the repetitions'
                # series are compared index by index.
                latencies.append(perf_counter() - start)
            wall_s = perf_counter() - begun
        finally:
            # Before anything else talks to the rig: the checks below use
            # the same wire calls the spans count.
            if tracer is not None:
                tracer.uninstall()
        rep = Rep(
            setup_s=setup_s,
            wall_s=wall_s,
            cpu_s=time.process_time() - cpu,
            latencies_s=latencies,
            results=results,
            attempted=len(inputs.timed),
            failed=raised + sum(map(_failed, results)),
            messages=rig.messages() - messages,
            virtual=workload.transport == "sim",
        )
        if live:
            after = rig.server_sample()
            rep.server = {
                "rss_mb": after["rss_mb"],
                "cpu_s": after["cpu_s"] - server_before["cpu_s"],
            }
        rep.errors = _check_results(workload, rep)
        if after_timed is not None:
            after_timed(rig, rep)
        return rep
    finally:
        rig.close()


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def _check_results(workload: Workload, rep: Rep) -> list[str]:
    errors = []
    if rep.failed:
        errors.append(f"{rep.failed} of {rep.attempted} queries failed")
    step = max(1, len(rep.results) // CHECKED_RESULTS)
    for result in rep.results[::step]:
        query, matched = result.query, result.matched
        similarity = recall = 0.0
        if matched is not None:
            held = matched.range
            shared = max(0, min(query.end, held.end) - max(query.start, held.start) + 1)
            if shared:
                similarity = shared / (len(query) + len(held) - shared)
            recall = shared / len(query)
        if not (
            math.isclose(result.similarity, similarity, rel_tol=1e-12)
            and math.isclose(result.recall, recall, rel_tol=1e-12)
        ):
            errors.append(
                f"{query} matched {matched}: reported similarity/recall "
                f"{result.similarity}/{result.recall}, recomputed {similarity}/{recall}"
            )
            break
    if workload.name == "live_read_8p" and not all(
        r.exact and r.recall == 1.0 for r in rep.results
    ):
        errors.append("a pre-stored range was not answered exactly with recall 1.0")
    return errors


def _check_placement(inputs: Inputs) -> Callable[[Any, Rep], None]:
    """After the durable write workload: every acked store is on r peers."""

    def check(rig: Any, rep: Rep) -> None:
        stored = {
            r.hashed_query for r in rep.results if r.stored
        } | set(inputs.warmup)
        rep.errors += rig.placement_errors(stored)

    return check


# ---------------------------------------------------------------------------
# End-to-end metrics (tracing off)
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _rep_row(rep: Rep) -> dict[str, float]:
    """One repetition's own numbers, kept in the output document."""
    qps, p50, p95 = best_decile(rep.latencies_s)
    return {
        "setup_s": rep.setup_s,
        "qps": qps,
        "qps_wall": rep.attempted / rep.wall_s,
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "msgs_per_query": rep.messages / rep.attempted,
        "recall_mean": sum(r.recall for r in rep.results) / rep.attempted,
    }


def measure(
    workload: Workload, seed: int, seconds: float, divisor: int, sandbox: Sandbox
) -> dict[str, Any]:
    """Three repetitions on the same inputs, reduced to the end-to-end
    metrics, with every check."""
    inputs = workload.inputs(seed, seconds, divisor)
    after = _check_placement(inputs) if workload.name == "live_write_8p_durable" else None
    rows: list[dict[str, float]] = []
    series: list[list[float]] = []
    signatures = set()
    errors: list[str] = []
    attempted = failed = 0
    peer_rss: list[float] = []
    for _ in range(REPS):
        rep = run_rep(workload, inputs, sandbox, after_timed=after)
        rows.append(_rep_row(rep))
        series.append(rep.latencies_s)
        signatures.add(rep.counts())
        errors += rep.errors
        attempted += rep.attempted
        failed += rep.failed
        peer_rss.append(rep.server.get("rss_mb", 0.0))
        # Only the numbers outlive a repetition: free its results before
        # the next system is built.
        del rep
        gc.collect()
    if len(signatures) != 1:
        errors.append("counts differ between repetitions on identical inputs")
    # Query i is the same work in every repetition, and interference only
    # adds time: its fastest observation is the least disturbed one.
    qps, p50, p95 = best_decile(np.minimum.reduce(series))
    metrics = {
        "setup_s": statistics.median(row["setup_s"] for row in rows),
        "qps": qps,
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        # Counts: identical in every repetition (checked above).
        "msgs_per_query": rows[0]["msgs_per_query"],
        "recall_mean": rows[0]["recall_mean"],
    }
    # ru_maxrss is a high-water mark of the whole run, so it is read once;
    # the peers' resident sizes are sampled as each timed phase ends.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        + statistics.median(peer_rss)
    )
    return {
        "counts": _counts(inputs),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "reps": rows,
    }


def _counts(inputs: Inputs) -> dict[str, int]:
    return {
        "prestore": len(inputs.prestore),
        "warmup": len(inputs.warmup),
        "timed": len(inputs.timed),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run + probes)
# ---------------------------------------------------------------------------

#: (self-time metric, span names it sums, call-count metric or None).
#: Every span name the tracer emits appears once, or the split would not
#: sum to the traced time (checked in ``_layer_metrics``).
LAYERS = (
    ("lsh.self_us", ("lsh",), "lsh.calls"),
    ("chord.route_self_us", ("chord.route",), None),
    ("core.replica_plan_self_us", ("core.replica_plan",), None),
    ("transport.hop_self_us", ("transport.hop",), "transport.hop_calls"),
    # sim.event spans are sim.network's delivery callbacks: the request
    # transport of the event-driven path.
    ("transport.request_self_us", ("transport.request", "sim.event"),
     "transport.request_calls"),
    ("peer.match_self_us", ("peer.match",), "peer.match_calls"),
    ("peer.store_self_us", ("peer.store",), "peer.store_calls"),
    ("obs.registry_self_us", ("obs.registry",), "obs.registry_calls"),
    ("sim.pick_origin_self_us", ("sim.pick_origin",), None),
    ("sim.kernel_self_us", ("sim.kernel",), None),
    ("wire.codec_self_us", ("wire.codec",), None),
    ("engine.self_us", (ROOT, ENGINE), None),
    # What the span wrappers themselves cost; already taken out of the
    # layers above, and listed so the split still sums to the traced time.
    ("trace.span_overhead_us", ("trace.overhead",), None),
)


def _layer_metrics(tracer: Tracer, queries: int) -> tuple[dict[str, float], list[str]]:
    split = tracer.layer_split()
    empty = {"self_s": 0.0, "calls": 0}
    traced_s = sum(tracer.durations(ROOT))
    metrics: dict[str, float] = {}
    covered = 0.0
    for self_metric, names, calls_metric in LAYERS:
        self_s = sum(split.get(n, empty)["self_s"] for n in names)
        covered += self_s
        metrics[self_metric] = self_s / queries * 1e6
        if calls_metric is not None:
            metrics[calls_metric] = split.get(names[0], empty)["calls"] / queries
    metrics["trace.query_us"] = traced_s / queries * 1e6
    errors = []
    if not math.isclose(covered, traced_s, rel_tol=1e-6):
        errors.append(
            f"layer self times sum to {covered:.6f}s, traced queries took {traced_s:.6f}s"
        )
    matches = split.get("peer.match", empty)["calls"]
    metrics["peer.entries_scanned_per_match"] = (
        tracer.counts["peer.entries_scanned"] / matches if matches else 0.0
    )
    metrics["sim.events_per_query"] = split.get("sim.event", empty)["calls"] / queries
    calls_ms = [s * 1e3 for s in tracer.durations("wire.call")]
    metrics["wire.call_ms_p50"] = _percentile(calls_ms, 50)
    metrics["wire.call_ms_p95"] = _percentile(calls_ms, 95)
    metrics["wire.connects_per_query"] = len(calls_ms) / queries
    return metrics, errors


def trace(
    workload: Workload, seed: int, seconds: float, divisor: int, sandbox: Sandbox
) -> dict[str, Any]:
    """One plain and one traced repetition on the same inputs, plus the
    workload's probes.  In process, spans roughly double a query's cost
    and the run has :func:`measure`'s time cap, so the sync and sim
    workloads trace half its timed count; a live query spends its time
    in other processes, and the write workload needs the full count to
    reach a WAL compaction."""
    live = workload.transport == "live"
    inputs = workload.inputs(seed, seconds if live else seconds / 2, divisor)
    queries = len(inputs.timed)
    durable = workload.name == "live_write_8p_durable"
    metrics: dict[str, float] = {}

    def after_plain(rig: Any, rep: Rep) -> None:
        service = rig.service_ms()
        metrics["server.service_ms_p50"] = service["p50"]
        metrics["server.service_ms_mean"] = service["mean"]

    def after_traced(rig: Any, rep: Rep) -> None:
        if not durable:
            return
        _check_placement(inputs)(rig, rep)
        wal = rig.wal_stats()
        metrics["wal.records_per_query"] = wal["appended"] / (
            queries + len(inputs.warmup)
        )
        metrics["wal.bytes_per_record"] = wal["bytes_per_record"]
        metrics["wal.compactions"] = wal["compactions"]
        metrics["storage.restart_recover_ms"] = rig.restart_recover_ms("peer-1")

    plain = run_rep(
        workload, inputs, sandbox, after_timed=after_plain if live else None
    )
    tracer = Tracer()
    traced = run_rep(workload, inputs, sandbox, tracer=tracer, after_timed=after_traced)
    errors = plain.errors + traced.errors
    if plain.counts() != traced.counts():
        errors.append("the traced repetition's counts differ from the plain one's")
    layer_metrics, layer_errors = _layer_metrics(tracer, queries)
    metrics.update(layer_metrics)
    errors += layer_errors

    results = plain.results
    metrics["chord.hops_per_query"] = sum(r.overlay_hops for r in results) / queries
    if plain.virtual:
        virtual = [r.total_ms for r in results]
        metrics["sim.virtual_p50_ms"] = _percentile(virtual, 50)
        metrics["sim.virtual_p99_ms"] = _percentile(virtual, 99)
    if live:
        metrics["client.cpu_ms_per_query"] = plain.cpu_s / queries * 1e3
        metrics["server.cpu_ms_per_query"] = plain.server["cpu_s"] / queries * 1e3
    metrics["driver.latency_p99_ms"] = _percentile(
        [s * 1e3 for s in plain.latencies_s], 99
    )
    metrics["driver.qps_wall"] = plain.attempted / plain.wall_s
    metrics["driver.failed_share"] = plain.failed / plain.attempted
    metrics["trace.overhead_pct"] = (plain.qps / traced.qps - 1.0) * 100.0
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if workload.name == "sync_route_10k":
        # The program's own QueryTrace on every query, against none.
        own = run_rep(workload, inputs, sandbox, own_trace=True)
        errors += own.errors
        metrics["obs.query_trace_overhead_pct"] = (plain.qps / own.qps - 1.0) * 100.0
        attempted += own.attempted
        failed += own.failed
    metrics.update(run_probes(workload.probes, sandbox))
    return {
        "counts": _counts(inputs),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "trace": {
            "queries": queries,
            "spans": tracer.span_count,
            "sample": tracer.sample(TRACE_SAMPLE_QUERIES),
        },
    }
