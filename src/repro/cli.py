"""Command-line interface.

Usage::

    python -m repro demo                       # the quickstart scenario
    python -m repro sql "SELECT ..."           # one statement over the
                                               # medical catalog, via P2P
    python -m repro experiments --scale quick  # regenerate figure reports
    python -m repro info                       # configuration summary

The CLI is a thin shell over the library; everything it does is available
programmatically (see README quickstart).  Each sub-command imports what
it runs inside its handler: ``repro serve`` is the start-up path of every
peer process, and must not pay for the SQL front end of ``repro sql``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate range selection queries in P2P systems "
        "(CIDR 2003 reproduction)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log subsystem activity to stderr (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--peers", type=int, default=200)
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--overlay", choices=("chord", "can"), default="chord"
    )

    sql = sub.add_parser(
        "sql", help="execute one SELECT over the medical catalog via P2P"
    )
    sql.add_argument("statement", help="the SQL statement")
    sql.add_argument("--patients", type=int, default=1000)
    sql.add_argument("--peers", type=int, default=100)
    sql.add_argument("--seed", type=int, default=11)
    sql.add_argument(
        "--explain", action="store_true", help="print the plan, don't execute"
    )
    sql.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="execute N times (later runs show cache behaviour)",
    )

    simulate = sub.add_parser(
        "simulate",
        help="event-driven queries: latency percentiles under loss/failure",
    )
    simulate.add_argument("--peers", type=int, default=1000)
    simulate.add_argument("--queries", type=int, default=100)
    simulate.add_argument(
        "--warm-queries",
        type=int,
        default=200,
        help="synchronous warmup queries that populate the buckets",
    )
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument(
        "--drop", type=float, default=0.0, help="message drop probability [0, 1)"
    )
    simulate.add_argument(
        "--fail",
        type=float,
        default=0.0,
        help="fraction of peers crashed before the timed phase [0, 1)",
    )
    simulate.add_argument(
        "--latency-ms",
        type=float,
        nargs=2,
        default=(10.0, 100.0),
        metavar=("LOW", "HIGH"),
        help="per-link one-way delay band",
    )
    simulate.add_argument(
        "--timeout-ms", type=float, default=400.0, help="per-attempt request timeout"
    )
    simulate.add_argument(
        "--retries", type=int, default=2, help="re-sends after the first attempt"
    )
    simulate.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="successor-list replication factor r (1 = the paper's "
        "unreplicated scheme; >1 enables failover lookups)",
    )
    simulate.add_argument(
        "--repair-interval",
        type=float,
        default=0.0,
        metavar="MS",
        help="virtual-time period of the anti-entropy repair task "
        "(0 = repair off)",
    )
    simulate.add_argument(
        "--peer-queue",
        type=int,
        default=0,
        metavar="N",
        help="bounded per-peer service queue capacity; full queues shed "
        "requests with a busy reply (0 = no queue model)",
    )
    simulate.add_argument(
        "--service-rate",
        type=float,
        default=0.0,
        metavar="QPS",
        help="per-peer service rate in requests/s (required with "
        "--peer-queue; load beyond it becomes queueing delay)",
    )
    simulate.add_argument(
        "--hedge",
        action="store_true",
        help="launch a backup lookup for chains still unanswered at the "
        "live p95 chain latency (first answer wins)",
    )
    simulate.add_argument(
        "--quorum",
        type=int,
        default=0,
        metavar="M",
        help="answer once M of the l chains replied if the best match "
        "clears the similarity threshold (0 = wait for all l)",
    )
    simulate.add_argument(
        "--breaker",
        action="store_true",
        help="per-destination circuit breakers: fail fast toward peers "
        "that keep timing out or shedding",
    )
    simulate.add_argument(
        "--adaptive-timeout",
        action="store_true",
        help="per-destination RTT-based timeouts plus jittered "
        "exponential retry backoff",
    )
    simulate.add_argument(
        "--slow",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="fraction of peers grey-failed before the timed phase: "
        "alive, but slowed by --slow-factor [0, 1)",
    )
    simulate.add_argument(
        "--slow-factor",
        type=float,
        default=4.0,
        metavar="X",
        help="latency and service-time multiplier for grey-failed peers",
    )
    simulate.add_argument(
        "--overlay",
        choices=("chord", "can"),
        default="chord",
        help="DHT overlay (replication and repair require chord)",
    )
    simulate.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record the first timed query's full lifecycle (spans, "
        "route hops, retries, store fan-out) as JSON to FILE",
    )
    simulate.add_argument(
        "--metrics",
        action="store_true",
        help="print the unified metrics-registry report after the run",
    )
    simulate.add_argument(
        "--sample-interval",
        type=float,
        default=0.0,
        metavar="MS",
        help="sample per-node health gauges every MS of virtual time "
        "(0 = sampling off)",
    )
    simulate.add_argument(
        "--health",
        action="store_true",
        help="print the health report (audit + load skew) after the run",
    )

    metrics = sub.add_parser(
        "metrics",
        help="run a small workload and dump the unified metrics registry",
    )
    metrics.add_argument("--peers", type=int, default=200)
    metrics.add_argument("--queries", type=int, default=50)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument(
        "--replicas", type=int, default=1, help="replication factor r"
    )
    metrics.add_argument(
        "--overlay",
        choices=("chord", "can"),
        default="chord",
        help="DHT overlay (replication requires chord)",
    )
    metrics.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the full registry snapshot as JSON to FILE",
    )
    metrics.add_argument(
        "--jsonl",
        metavar="FILE",
        default=None,
        help="also write one JSON document per metric to FILE",
    )
    metrics.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="scrape one *live* server's telemetry snapshot instead of "
        "running a local workload (--peers/--queries are ignored)",
    )

    health = sub.add_parser(
        "health",
        help="audit overlay invariants and report per-node load skew",
    )
    health.add_argument("--peers", type=int, default=200)
    health.add_argument(
        "--queries",
        type=int,
        default=100,
        help="warmup queries that populate the buckets before the audit",
    )
    health.add_argument("--seed", type=int, default=7)
    health.add_argument(
        "--replicas", type=int, default=1, help="replication factor r"
    )
    health.add_argument(
        "--overlay",
        choices=("chord", "can"),
        default="chord",
        help="DHT overlay (replication requires chord)",
    )
    health.add_argument(
        "--crash",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="crash this fraction of peers before the final audit [0, 1)",
    )
    health.add_argument(
        "--repair",
        action="store_true",
        help="run a synchronous repair pass after crashing and re-audit",
    )
    health.add_argument(
        "--top", type=int, default=5, help="hot identifiers to rank"
    )
    health.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the health report and metrics snapshot as JSON to FILE",
    )
    health.add_argument(
        "--jsonl",
        metavar="FILE",
        default=None,
        help="write one JSON document per metric plus the health report "
        "to FILE",
    )

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's figures"
    )
    experiments.add_argument(
        "--scale", choices=("quick", "paper"), default="quick"
    )
    experiments.add_argument("--out", default="results")

    serve = sub.add_parser(
        "serve",
        help="run one peer as a TCP server (a node of a live cluster)",
    )
    serve.add_argument(
        "--address", required=True,
        help="the peer's logical address; its node id is SHA-1 of this",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--bootstrap",
        metavar="HOST:PORT",
        default=None,
        help="an existing peer to join through (omit for the first peer)",
    )
    serve.add_argument(
        "--config-json",
        metavar="JSON",
        default=None,
        help="system configuration as JSON (all peers must agree; the "
        "bootstrap peer's config is served to clients via 'hello')",
    )
    serve.add_argument(
        "--swim-interval",
        type=float,
        default=1_000.0,
        metavar="MS",
        help="SWIM failure-detector tick period (0 = detector off; "
        "membership then only changes on join/leave)",
    )
    serve.add_argument(
        "--suspect-timeout",
        type=float,
        default=None,
        metavar="MS",
        help="how long an un-refuted suspicion lives before the peer is "
        "declared dead (default: 3x the swim interval)",
    )
    serve.add_argument(
        "--swim-proxies",
        type=int,
        default=2,
        metavar="K",
        help="indirect ping-req proxies tried before suspecting a peer",
    )
    serve.add_argument(
        "--repair-interval",
        type=float,
        default=1_000.0,
        metavar="MS",
        help="server-driven anti-entropy repair period (0 = no periodic "
        "repair rounds; lost copies are then not re-created)",
    )
    serve.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="directory for flight-recorder incident dumps (JSONL, "
        "appended when SWIM evicts a member; omit to keep the recorder "
        "in-memory only)",
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="durable store directory: every entry mutation is written "
        "to an fsync'd write-ahead log before it is acknowledged, and a "
        "restart with the same directory replays the state, resumes the "
        "persisted SWIM incarnation, and reconciles with the ring "
        "(omit to keep the peer purely in-memory)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=512,
        metavar="N",
        help="fold the WAL into an atomic snapshot every N appends",
    )
    serve.add_argument(
        "--no-wal-fsync",
        action="store_true",
        help="skip the per-commit fsync (faster, but an OS crash may "
        "lose acknowledged writes; process crashes are still covered)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="spawn a localhost cluster of serve processes and run a "
        "scripted workload against it",
    )
    cluster.add_argument("--peers", type=int, default=8)
    cluster.add_argument(
        "--replicas", type=int, default=3, help="replication factor r"
    )
    cluster.add_argument(
        "--queries", type=int, default=30, help="timed queries to run"
    )
    cluster.add_argument("--seed", type=int, default=7)
    cluster.add_argument(
        "--smoke",
        action="store_true",
        help="fault drill: kill one non-owner replica mid-workload and "
        "exit nonzero unless recall survives via failover and the ring "
        "heals back to r copies of every key on its own",
    )
    cluster.add_argument(
        "--chaos",
        metavar="SCHEDULE",
        default=None,
        help="seeded chaos drill, e.g. 'kill=1,pause=1,partition=1': "
        "play the fault waves, wait for the ring to self-heal, and exit "
        "nonzero unless membership reconverges and recall recovers",
    )
    cluster.add_argument(
        "--swim-interval",
        type=float,
        default=500.0,
        metavar="MS",
        help="SWIM tick period passed to every peer",
    )
    cluster.add_argument(
        "--suspect-timeout",
        type=float,
        default=None,
        metavar="MS",
        help="suspicion lifetime passed to every peer "
        "(default: 3x the swim interval)",
    )
    cluster.add_argument(
        "--repair-interval",
        type=float,
        default=500.0,
        metavar="MS",
        help="server-side repair period passed to every peer",
    )
    cluster.add_argument(
        "--recovery-timeout",
        type=float,
        default=90.0,
        metavar="S",
        help="how long the smoke and chaos drills wait for the ring to "
        "reconverge and heal",
    )
    cluster.add_argument(
        "--hold",
        action="store_true",
        help="keep the ring serving after the workload (until Ctrl-C) "
        "so `repro client` can query it",
    )
    cluster.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="run one distributed-traced query after the workload (and "
        "after any drill), write the stitched trace + stitch report as "
        "JSON to FILE, and exit nonzero if no server span was stitched",
    )
    cluster.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help="scrape every member's telemetry after the workload and "
        "write the merged cluster view as JSON to FILE (exit nonzero "
        "if any live member's snapshot is missing or unparseable)",
    )
    cluster.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="pass --flight-dir DIR to every peer so incidents during "
        "the drill leave JSONL flight-recorder dumps behind",
    )
    cluster.add_argument(
        "--durable",
        action="store_true",
        help="give every peer a --data-dir under a temp root (removed "
        "on exit) so kills can be followed by restarts from disk",
    )
    cluster.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="explicit durable data root (one subdirectory per peer); "
        "implies --durable and is left in place on exit",
    )
    cluster.add_argument(
        "--restart-drill",
        action="store_true",
        help="durability drill: SIGKILL *all* replica holders of a "
        "probed entry, restart them from disk, and exit nonzero unless "
        "recall returns to the warm level with the restore counters "
        "proving the data came back from disk (implies --durable)",
    )
    cluster.add_argument(
        "--cold-restart",
        action="store_true",
        help="durability drill: SIGKILL every peer, restart the whole "
        "cluster from disk, and exit nonzero unless recall is preserved "
        "exactly (implies --durable)",
    )

    client = sub.add_parser(
        "client", help="run one query against a live cluster"
    )
    client.add_argument(
        "--bootstrap",
        metavar="HOST:PORT",
        required=True,
        help="any live peer of the cluster",
    )
    client.add_argument(
        "--query",
        metavar="START:END",
        required=True,
        help="the range to query, e.g. 100:200",
    )
    client.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times (later runs show cache behaviour)",
    )

    top = sub.add_parser(
        "top",
        help="live cluster dashboard: per-peer QPS, queue depth, repair "
        "debt, breaker and SWIM state, plus cluster-wide latency "
        "percentiles and load skew",
    )
    top.add_argument(
        "--bootstrap",
        metavar="HOST:PORT",
        required=True,
        help="any live peer of the cluster",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between scrapes",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = run until Ctrl-C)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append tables instead of redrawing the screen (CI/logs)",
    )
    top.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the final merged cluster view as JSON to FILE",
    )

    trace = sub.add_parser(
        "trace",
        help="run one query as a distributed trace and pretty-print the "
        "stitched cross-process span tree",
    )
    trace.add_argument(
        "--bootstrap",
        metavar="HOST:PORT",
        required=True,
        help="any live peer of the cluster",
    )
    trace.add_argument(
        "--query",
        metavar="START:END",
        required=True,
        help="the range to query, e.g. 100:200",
    )
    trace.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="trace the query N times",
    )
    trace.add_argument(
        "--follow",
        action="store_true",
        help="keep tracing (one query per --interval) until Ctrl-C",
    )
    trace.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between traced queries with --follow",
    )
    trace.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the last stitched trace + stitch report as JSON "
        "to FILE",
    )

    sub.add_parser("info", help="print the default configuration")
    return parser


def _run_demo(args: argparse.Namespace, out) -> int:
    from repro.core.config import SystemConfig
    from repro.core.system import RangeSelectionSystem
    from repro.ranges.interval import IntRange

    config = SystemConfig(
        n_peers=args.peers, seed=args.seed, overlay=args.overlay
    )
    system = RangeSelectionSystem(config)
    print(f"system: {config.describe()}", file=out)
    cold = system.query(IntRange(30, 50))
    print(
        f"query [30, 50]: matched={cold.matched} stored={cold.stored}",
        file=out,
    )
    warm = system.query(IntRange(30, 49))
    print(
        f"query [30, 49]: matched={warm.matched} "
        f"similarity={warm.similarity:.3f} recall={warm.recall:.2f} "
        f"hops={warm.overlay_hops}",
        file=out,
    )
    return 0


def _run_sql(args: argparse.Namespace, out) -> int:
    from repro.core.config import SystemConfig
    from repro.core.p2pdb import P2PDatabase
    from repro.core.system import RangeSelectionSystem
    from repro.db.catalog import medical_catalog
    from repro.ranges.domain import Domain

    catalog = medical_catalog(n_patients=args.patients)
    system = RangeSelectionSystem(
        SystemConfig(
            n_peers=args.peers,
            seed=args.seed,
            matcher="containment",
            domain=Domain("value", 0, 10**6),
        )
    )
    db = P2PDatabase(catalog, system)
    if args.explain:
        print(db.explain(args.statement), file=out)
        return 0
    for run_index in range(max(1, args.repeat)):
        report = db.execute(args.statement)
        print(f"run {run_index + 1}: {report.summary()}", file=out)
        if run_index == 0:
            for row in report.result.decoded_rows(catalog.schema)[:10]:
                print(f"  {row}", file=out)
            if len(report.rows) > 10:
                print(f"  ... {len(report.rows) - 10} more rows", file=out)
    print(f"source accesses: {catalog.source_accesses}", file=out)
    return 0


def _system_config(args: argparse.Namespace, **extra):
    """The ``SystemConfig`` of simulate / metrics / health."""
    from repro.core.config import SystemConfig

    return SystemConfig(
        n_peers=args.peers,
        seed=args.seed,
        replicas=args.replicas,
        overlay=args.overlay,
        **extra,
    )


def _run_simulate(args: argparse.Namespace, out) -> int:
    from repro.experiments.scenario import Scenario
    from repro.metrics.collector import QueryLog

    scenario = Scenario(
        _system_config(
            args,
            peer_queue=args.peer_queue,
            service_rate=args.service_rate,
            hedge=args.hedge,
            quorum=args.quorum,
            breaker=args.breaker,
            adaptive_timeout=args.adaptive_timeout,
        ),
        stream="cli/simulate-",
        warm_queries=args.warm_queries,
        timed_queries=args.queries,
        latency_ms=tuple(args.latency_ms),
        drop=args.drop,
        timeout_ms=args.timeout_ms,
        max_retries=args.retries,
        crash_fraction=args.fail,
        slow_fraction=args.slow,
        slow_factor=args.slow_factor,
        repair=args.repair_interval > 0,
        repair_interval_ms=args.repair_interval,
        sample_interval_ms=args.sample_interval,
    )
    run = scenario.start()
    engine, repairer, sampler = run.engine, run.repairer, run.sampler
    run.crash()
    low_ms, high_ms = scenario.latency_ms
    print(f"system: {scenario.config.describe()}", file=out)
    print(
        f"faults: drop={args.drop:.0%}, crashed {len(run.crashed)}/{run.n_peers} peers; "
        f"link delay [{low_ms:g}, {high_ms:g}] ms, "
        f"timeout {args.timeout_ms:g} ms x{args.retries + 1} attempts; "
        f"replicas={args.replicas}",
        file=out,
    )
    overload_on = (
        args.peer_queue or run.slowed or args.hedge or args.quorum
        or args.breaker or args.adaptive_timeout
    )
    if overload_on:
        print(
            f"overload: queue={args.peer_queue} @ {args.service_rate:g} req/s, "
            f"slow {len(run.slowed)}/{run.n_peers} peers x{args.slow_factor:g}, "
            f"hedge={'on' if args.hedge else 'off'}, "
            f"quorum={args.quorum or 'off'}, "
            f"breaker={'on' if args.breaker else 'off'}, "
            f"adaptive={'on' if args.adaptive_timeout else 'off'}",
            file=out,
        )
    if repairer is not None:
        # Heal the crash damage once up front, then keep healing on the
        # virtual clock while the timed queries drive it.
        engine.sim.run_until_complete(repairer.run_round())
        repairer.start()
    if sampler is not None:
        sampler.sample_once()
        sampler.start()
    log = QueryLog()
    dead_queries = 0
    for index, query in enumerate(run.queries()):
        trace = None
        if args.trace is not None and index == 0:
            trace = engine.start_trace(query)
        result = engine.run(query, trace=trace)
        log.add(result)
        if result.timeouts == len(result.chains) and not result.found:
            dead_queries += 1
        if trace is not None:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(trace.to_json(indent=2))
            print(f"trace: wrote query lifecycle to {args.trace}", file=out)
    if repairer is not None:
        repairer.stop()
    if sampler is not None:
        sampler.stop()
        sampler.sample_once()
        print(
            f"sampler: {sampler.samples_taken} samples at "
            f"{args.sample_interval:g} ms intervals",
            file=out,
        )
    print(log.report(), file=out)
    stats = engine.net.stats
    overload_traffic = ""
    if stats.busy_shed or stats.hedges:
        overload_traffic = (
            f", {stats.busy_shed} busy-shed, {stats.hedges} hedges "
            f"({stats.hedge_wins} won)"
        )
    print(
        f"traffic: {stats.messages} messages, {stats.drops} dropped, "
        f"{stats.retries} retries, {stats.timeouts} request timeouts, "
        f"{stats.failovers} failovers, {stats.replica_stores} replica stores"
        f"{overload_traffic}",
        file=out,
    )
    if repairer is not None:
        print(f"repair: {repairer.stats.describe()}", file=out)
    if args.health:
        from repro.obs.health import health_check

        print(
            health_check(run.system, is_alive=engine.net.is_alive).report(),
            file=out,
        )
    if args.metrics:
        print(run.system.metrics.report("Simulation metrics"), file=out)
    if dead_queries == args.queries:
        print(
            f"warning: all {args.queries} queries failed (every lookup "
            "chain timed out or was shed) — the summary above reflects "
            "no successful lookups; lower the load or raise the fault "
            "budget (timeout, retries, replicas)",
            file=sys.stderr,
        )
        return 1
    return 0


def _write(path: str, text: str, what: str, out) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {what} to {path}", file=out)


def _run_metrics(args: argparse.Namespace, out) -> int:
    if args.connect is not None:
        return _run_metrics_connect(args, out)

    from repro.experiments.scenario import Scenario

    config = _system_config(args)
    system = Scenario(config, warm_queries=args.queries).start().system
    print(f"system: {config.describe()}", file=out)
    print(system.metrics.report("Metrics after workload"), file=out)
    if args.json is not None:
        _write(args.json, system.metrics.to_json(indent=2), "JSON snapshot", out)
    if args.jsonl is not None:
        _write(args.jsonl, system.metrics.to_jsonl(), "JSONL dump", out)
    return 0


def _run_metrics_connect(args: argparse.Namespace, out) -> int:
    """Scrape one live server's versioned telemetry snapshot."""
    import asyncio
    import json

    from repro.metrics.report import format_table
    from repro.obs.distributed import counter_series
    from repro.rpc import wire

    host, port = _parse_endpoint(args.connect)
    reply = asyncio.run(
        wire.call(host, port, "telemetry", timeout_ms=10_000.0)
    )
    if not isinstance(reply, dict) or reply.get("version") is None:
        print(
            f"error: {args.connect} returned an unversioned telemetry "
            f"snapshot: {reply!r:.200}",
            file=sys.stderr,
        )
        return 1
    print(
        f"node {reply.get('node')} (id {reply.get('node_id')}), "
        f"telemetry v{reply.get('version')}",
        file=out,
    )
    print(
        f"captured: mono {reply.get('captured_mono_ms', 0.0):.1f} ms, "
        f"wall {reply.get('captured_wall_ms', 0.0):.1f} ms",
        file=out,
    )
    census = reply.get("census") or {}
    flight = reply.get("flight") or {}
    print(
        f"queue depth {reply.get('queue_depth', 0)}, "
        f"pending repair {reply.get('pending_repair', 0)}, "
        f"census {census.get('entries', 0)} entries "
        f"({census.get('primaries', 0)} primary / "
        f"{census.get('replicas', 0)} replica), "
        f"flight recorder {flight.get('retained', 0)}/"
        f"{flight.get('recorded', 0)} retained "
        f"({flight.get('dumps', 0)} dumps)",
        file=out,
    )
    swim = reply.get("swim") or {}
    states = swim.get("states") or {}
    print(
        f"swim: epoch {swim.get('epoch')}, "
        + (
            ", ".join(
                f"{address}={state}" for address, state in sorted(states.items())
            )
            or "no members"
        ),
        file=out,
    )
    requests = counter_series(reply.get("metrics") or {}, "server.requests")
    if requests:
        rows = sorted(requests.items(), key=lambda kv: -kv[1])
        print(
            format_table(
                ("request kind", "count"), rows, title="Requests served"
            ),
            file=out,
        )
    if args.json is not None:
        _write(args.json, json.dumps(reply, indent=2, default=str), "JSON snapshot", out)
    return 0


def _run_health(args: argparse.Namespace, out) -> int:
    import json

    from repro.experiments.scenario import Scenario
    from repro.obs.health import TelemetrySampler, health_check

    config = _system_config(args)
    run = Scenario(
        config,
        stream="cli/health-",
        warm_queries=args.queries,
        crash_fraction=args.crash,
        repair=args.repair,
    ).start()
    system = run.system
    sampler = TelemetrySampler(system)
    print(f"system: {config.describe()}", file=out)
    sampler.sample_once()
    n_crashed = len(run.crashed)
    if n_crashed:
        run.crash()
        print(f"crashed {n_crashed}/{run.n_peers} peers", file=out)
        sampler.sample_once()
    report = health_check(system, top_n=args.top)
    print(report.report(), file=out)
    if args.repair and n_crashed:
        copies = system.repair_replicas()
        sampler.sample_once()
        report = health_check(system, top_n=args.top)
        print(f"\nrepair created {copies} copies; re-audit:", file=out)
        print(report.report(), file=out)
    if args.json is not None:
        document = {
            "health": report.to_dict(),
            "metrics": system.metrics.snapshot(),
        }
        _write(args.json, json.dumps(document, indent=2, default=str), "JSON snapshot", out)
    if args.jsonl is not None:
        health_line = json.dumps({"health": report.to_dict()}, default=str)
        _write(args.jsonl, f"{system.metrics.to_jsonl()}\n{health_line}\n", "JSONL dump", out)
    return 0


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {text!r}")
    return (host, int(port))


def _parse_query(text: str):
    from repro.ranges.interval import IntRange

    start_text, _, end_text = text.partition(":")
    try:
        return IntRange(int(start_text), int(end_text))
    except ValueError as exc:
        raise ReproError(f"bad --query (want START:END): {exc}") from exc


def _run_serve(args: argparse.Namespace, out) -> int:
    import asyncio
    import json

    from repro.core.config import SystemConfig
    from repro.rpc import wire
    from repro.rpc.server import run_server

    if args.config_json is not None:
        try:
            config = wire.config_from_wire(json.loads(args.config_json))
        except (ValueError, KeyError, TypeError) as exc:
            raise ReproError(f"bad --config-json: {exc}") from exc
    else:
        config = SystemConfig()
    bootstrap = (
        _parse_endpoint(args.bootstrap) if args.bootstrap is not None else None
    )
    try:
        asyncio.run(
            run_server(
                args.address,
                config,
                host=args.host,
                port=args.port,
                bootstrap=bootstrap,
                swim_interval_ms=args.swim_interval,
                suspect_timeout_ms=args.suspect_timeout,
                swim_proxies=args.swim_proxies,
                repair_interval_ms=args.repair_interval,
                flight_dir=args.flight_dir,
                data_dir=args.data_dir,
                wal_fsync=not args.no_wal_fsync,
                compact_every=args.compact_every,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _run_cluster(args: argparse.Namespace, out) -> int:
    import time

    from repro.core.config import SystemConfig
    from repro.rpc import drills
    from repro.rpc.chaos import ChaosSchedule
    from repro.rpc.cluster import LocalCluster
    from repro.workloads.generators import UniformRangeWorkload

    # Every argv check comes before the first peer process is spawned.
    if args.peers < 2:
        raise ReproError("--peers must be at least 2")
    durable = bool(
        args.durable or args.data_dir or args.restart_drill or args.cold_restart
    )
    if args.restart_drill and args.peers <= args.replicas:
        raise ReproError(
            "--restart-drill needs --peers > --replicas (a survivor must "
            "remain outside the killed replica set)"
        )
    if args.smoke and args.replicas < 2:
        raise ReproError("--smoke needs --replicas >= 2")
    if args.smoke and (args.swim_interval <= 0 or args.repair_interval <= 0):
        raise ReproError(
            "--smoke needs --swim-interval and --repair-interval > 0 "
            "(the ring heals itself)"
        )
    if args.queries < 1 and (args.smoke or args.restart_drill or args.trace):
        raise ReproError(
            "--smoke, --restart-drill and --trace need --queries >= 1"
        )
    chaos_counts = ChaosSchedule.parse_spec(args.chaos) if args.chaos else None
    config = SystemConfig(
        n_peers=args.peers, seed=args.seed, replicas=args.replicas
    )
    queries = list(
        UniformRangeWorkload(
            config.domain, args.queries, seed=args.seed + 2
        ).ranges()
    )
    timeout_s = args.recovery_timeout

    def say(line: str) -> None:
        print(line, file=out)

    def check(result) -> None:
        # main() turns this into "error: <reason>" on stderr and exit 1,
        # after the with-blocks below have torn the cluster down.
        if not result.ok:
            raise ReproError(result.reason)

    with LocalCluster(
        args.peers,
        config,
        swim_interval_ms=args.swim_interval,
        suspect_timeout_ms=args.suspect_timeout,
        repair_interval_ms=args.repair_interval,
        flight_dir=args.flight_dir,
        durable=durable,
        data_root=args.data_dir,
    ) as cluster:
        endpoints = ", ".join(
            f"{address}@{host}:{port}"
            for address, (host, port) in cluster.endpoints.items()
        )
        say(f"cluster: {args.peers} peers up ({endpoints})")
        with cluster.client() as client:
            # Warm pass: populate the buckets (store-on-miss).
            for query in queries:
                client.query(query)
            warm = drills.mean_recall(client, queries)
            say(f"warm: {len(queries)} queries, mean recall {warm:.2f}")
            if args.smoke:
                check(
                    drills.smoke_drill(cluster, client, queries, warm, timeout_s, say)
                )
            else:
                recall = drills.mean_recall(client, queries)
                counters = client.system.counters
                say(
                    f"after: {len(queries)} queries, mean recall "
                    f"{recall:.2f}, {counters.failovers} failovers, "
                    f"{counters.failed_lookups} failed lookups"
                )
            if chaos_counts is not None:
                check(
                    drills.chaos_drill(
                        cluster, client, queries, warm, chaos_counts,
                        args.seed, timeout_s, say,
                    )
                )
            if args.trace or args.telemetry:
                check(
                    drills.capture_observability(
                        client, queries, args.trace, args.telemetry, say
                    )
                )
        # The restart drills recycle peer processes (fresh OS ports), so
        # they run outside the client block and build their own clients.
        if args.restart_drill:
            check(drills.restart_drill(cluster, queries, warm, timeout_s, say))
        if args.cold_restart:
            check(
                drills.cold_restart_drill(cluster, queries, warm, timeout_s, say)
            )
        if args.hold:
            boot_host, boot_port = cluster.bootstrap_endpoint()
            say(
                f"holding: query with `python -m repro client "
                f"--bootstrap {boot_host}:{boot_port} --query START:END` "
                f"(Ctrl-C to stop)"
            )
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
    return 0


def _run_client(args: argparse.Namespace, out) -> int:
    from repro.rpc.client import ClusterClient

    query = _parse_query(args.query)
    with ClusterClient(_parse_endpoint(args.bootstrap)) as client:
        print(f"cluster: {len(client.members)} members", file=out)
        for run_index in range(max(1, args.repeat)):
            result = client.query(query)
            print(
                f"run {run_index + 1}: matched={result.matched} "
                f"similarity={result.similarity:.3f} "
                f"recall={result.recall:.2f} hops={result.overlay_hops} "
                f"latency={result.total_ms:.1f} ms",
                file=out,
            )
    return 0


def _render_top(view: dict) -> str:
    """One refresh of the dashboard as fixed-width text."""
    from repro.metrics.report import format_table

    rows = []
    for address, node in sorted(view["nodes"].items()):
        census = node.get("census") or {}
        states = node.get("swim_states") or {}
        # A state is "alive" or a ("alive", incarnation) pair on the wire.
        alive = sum(
            1
            for state in states.values()
            if (state[0] if isinstance(state, (list, tuple)) else state)
            == "alive"
        )
        skew = node.get("clock_skew_ms")
        rows.append(
            (
                address,
                f"{node.get('qps', 0.0):.1f}",
                node.get("queue_depth", 0),
                f"{node.get('connections_open', 0):g}/{node.get('accepts', 0):g}",
                node.get("pending_repair", 0),
                census.get("entries", 0),
                census.get("primaries", 0),
                node.get("breaker", "-"),
                f"{alive}/{len(states)}" if states else "-",
                node.get("swim_epoch", "-"),
                f"{skew:+.0f}" if isinstance(skew, (int, float)) else "-",
            )
        )
    for address, error in sorted(view.get("errors", {}).items()):
        rows.append((address, "-", "-", "-", "-", "-", "-", "-", "-", "-", error))
    for address in sorted(view.get("down", [])):
        rows.append((address, "-", "-", "-", "-", "-", "-", "down", "-", "-", "-"))
    service = view.get("service_ms") or {}
    lines = [
        format_table(
            (
                "peer", "qps", "queue", "conns", "repair", "entries", "prim",
                "breaker", "alive", "epoch", "skew ms",
            ),
            rows,
            title=(
                f"cluster: {view.get('scraped', 0)}/{view.get('members', 0)} "
                "members scraped"
            ),
        ),
        (
            f"service_ms p50/p95/p99 {service.get('p50', 0):g}/"
            f"{service.get('p95', 0):g}/{service.get('p99', 0):g} "
            f"(mean {service.get('mean', 0.0):.2f}, "
            f"n={service.get('count', 0)}), "
            f"load skew (gini) {view.get('load_skew', 0.0):.3f}"
        ),
    ]
    return "\n".join(lines)


def _run_top(args: argparse.Namespace, out) -> int:
    import json
    import time

    from repro.rpc.client import ClusterClient, ClusterScraper

    if args.interval <= 0:
        raise ReproError("--interval must be positive")
    view = None
    with ClusterClient(_parse_endpoint(args.bootstrap)) as client:
        scraper = ClusterScraper(client)
        refreshes = 0
        try:
            while True:
                try:
                    client.refresh()
                except ReproError:
                    pass  # bootstrap hiccup; scrape the mirrored members
                view = scraper.scrape()
                if not args.plain:
                    print("\x1b[2J\x1b[H", end="", file=out)
                print(_render_top(view), file=out)
                refreshes += 1
                if args.iterations and refreshes >= args.iterations:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    if args.json is not None and view is not None:
        _write(args.json, json.dumps(view, indent=2, default=str), "cluster view", out)
    if view is not None and not view["nodes"]:
        print(
            f"error: no member answered telemetry ({view['errors']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_trace(args: argparse.Namespace, out) -> int:
    import json
    import time

    from repro.obs.distributed import format_trace
    from repro.rpc.client import ClusterClient

    query = _parse_query(args.query)
    last = None
    with ClusterClient(_parse_endpoint(args.bootstrap)) as client:
        run_index = 0
        try:
            while True:
                result, trace, report = client.query_traced(query)
                last = (trace, report)
                print(
                    f"run {run_index + 1}: matched={result.matched} "
                    f"recall={result.recall:.2f} "
                    f"latency={result.total_ms:.1f} ms — stitched "
                    f"{report.attached} server span(s) from "
                    f"{len(report.nodes)} peer(s), "
                    f"{report.orphans} orphan(s)"
                    + (
                        f", skew suspects {report.skew_suspects}"
                        if report.skew_suspects
                        else ""
                    ),
                    file=out,
                )
                print(format_trace(trace), file=out)
                run_index += 1
                if args.follow:
                    time.sleep(args.interval)
                    continue
                if run_index >= max(1, args.repeat):
                    break
        except KeyboardInterrupt:
            pass
    if args.json is not None and last is not None:
        trace, report = last
        document = {"trace": trace.to_dict(), "stitch": report.to_dict()}
        _write(args.json, json.dumps(document, indent=2, default=str), "stitched trace", out)
    return 0


def _run_experiments(args: argparse.Namespace, out) -> int:
    from repro.experiments.runall import run_all

    run_all(scale=args.scale, results_dir=args.out)
    return 0


def _run_info(out) -> int:
    from repro.core.config import SystemConfig

    config = SystemConfig()
    print(f"default config: {config.describe()}", file=out)
    print(
        "LSH theory: match probability at similarity 0.9 is "
        f"{1 - (1 - 0.9 ** config.k) ** config.l:.2f} "
        f"(k={config.k}, l={config.l})",
        file=out,
    )
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.obs.log import configure_logging

        configure_logging(args.verbose)
    try:
        if args.command == "demo":
            return _run_demo(args, out)
        if args.command == "sql":
            return _run_sql(args, out)
        if args.command == "simulate":
            return _run_simulate(args, out)
        if args.command == "metrics":
            return _run_metrics(args, out)
        if args.command == "health":
            return _run_health(args, out)
        if args.command == "serve":
            return _run_serve(args, out)
        if args.command == "cluster":
            return _run_cluster(args, out)
        if args.command == "client":
            return _run_client(args, out)
        if args.command == "top":
            return _run_top(args, out)
        if args.command == "trace":
            return _run_trace(args, out)
        if args.command == "experiments":
            return _run_experiments(args, out)
        if args.command == "info":
            return _run_info(out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable: argparse enforces a command")


if __name__ == "__main__":
    raise SystemExit(main())
