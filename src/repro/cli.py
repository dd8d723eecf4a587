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

from repro.errors import ConfigError, ReproError

__all__ = ["main", "build_parser"]


_ANY_PEER = "any live peer of the cluster"


class _HelpFormatter(argparse.HelpFormatter):
    """Names a flag's value after the flag, as argparse does when the dest
    is the flag's own name: ``--peers PEERS``, not the field ``N_PEERS``."""

    def _get_default_metavar_for_optional(self, action: argparse.Action) -> str:
        return action.option_strings[-1].lstrip("-").replace("-", "_").upper()


def _ring_flags(
    parser, peers: int, *, seed=7, replicas: int | None = None, overlay=False
) -> None:
    """``--peers / --seed``, and ``--replicas`` given its default and
    ``--overlay`` when asked for: the ring a command builds."""
    parser.add_argument("--peers", dest="n_peers", type=int, default=peers)
    parser.add_argument("--seed", type=int, default=seed)
    if replicas is not None:
        parser.add_argument(
            "--replicas",
            type=int,
            default=replicas,
            help="successor-list replication factor r (1 = the paper's "
            "unreplicated scheme; >1 enables failover lookups)",
        )
    if overlay:
        parser.add_argument(
            "--overlay",
            choices=("chord", "can"),
            default="chord",
            help="DHT overlay (replication and repair require chord)",
        )


def _output_flags(parser, document: str, lines: str | None = None) -> None:
    """``--json`` (writing ``document``) and, given its ``lines``, ``--jsonl``."""
    parser.add_argument("--json", metavar="FILE", help=f"write {document} as JSON to FILE")
    if lines is not None:
        parser.add_argument("--jsonl", metavar="FILE", help=f"write {lines} to FILE")


def _live_flags(
    parser, *, bootstrap=_ANY_PEER, required=True, query=False, repeat=None, interval=None
) -> None:
    """``--bootstrap`` (given its help), ``--query`` (when asked for),
    ``--repeat`` and ``--interval`` (given what they repeat and pace): the
    peer to talk to, what to ask it, how often and how far apart."""
    if bootstrap is not None:
        parser.add_argument(
            "--bootstrap", metavar="HOST:PORT", required=required, help=bootstrap
        )
    if query:
        parser.add_argument(
            "--query",
            metavar="START:END",
            required=True,
            help="the range to query, e.g. 100:200",
        )
    if repeat is not None:
        parser.add_argument(
            "--repeat",
            type=int,
            default=1,
            help=f"{repeat} N times (later runs show cache behaviour)",
        )
    if interval is not None:
        parser.add_argument(
            "--interval",
            type=float,
            default=2.0,
            metavar="S",
            help=f"seconds between {interval}",
        )


def _peer_flags(parser, period_ms: float, on: str = "") -> None:
    """A peer process's SWIM, repair and flight-recorder flags: ``repro
    serve``'s own, and ``repro cluster``'s (``on=" on every peer"``), which
    it forwards to every peer."""
    parser.add_argument(
        "--swim-interval",
        dest="swim_interval_ms",
        type=float,
        default=period_ms,
        metavar="MS",
        help=f"SWIM failure-detector tick period{on} (0 = detector off; "
        "membership then only changes on join/leave)",
    )
    parser.add_argument(
        "--suspect-timeout",
        dest="suspect_timeout_ms",
        type=float,
        metavar="MS",
        help=f"how long an un-refuted suspicion lives{on} before the peer "
        "is declared dead (default: 3x the swim interval)",
    )
    parser.add_argument(
        "--repair-interval",
        dest="repair_interval_ms",
        type=float,
        default=period_ms,
        metavar="MS",
        help=f"server-driven anti-entropy repair period{on} (0 = no "
        "periodic repair rounds; lost copies are then not re-created)",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        help=f"directory for flight-recorder incident dumps{on} (JSONL, "
        "appended when SWIM evicts a member; omit to keep the recorder "
        "in-memory only)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs).

    Each flag is declared once, by the command or the flag-group helper
    that owns it, and its ``dest`` is the field it feeds: handlers pass
    ``SystemConfig``, ``Scenario`` and peer keywords on by name
    (:func:`_fields`), and :func:`main` names the flag in a
    ``ConfigError``'s message.  Each command's ``run`` is its handler.
    """
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

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        subparser.set_defaults(run=run)
        return subparser

    demo = command("demo", _run_demo, "run the quickstart scenario")
    _ring_flags(demo, 200, overlay=True)

    sql = command("sql", _run_sql, "execute one SELECT over the medical catalog via P2P")
    sql.add_argument("statement", help="the SQL statement")
    sql.add_argument("--patients", type=int, default=1000)
    _ring_flags(sql, 100, seed=11)
    sql.add_argument(
        "--explain", action="store_true", help="print the plan, don't execute"
    )
    _live_flags(sql, bootstrap=None, repeat="execute")

    simulate = command(
        "simulate",
        _run_simulate,
        "event-driven queries: latency percentiles under loss/failure",
    )
    _ring_flags(simulate, 1000, replicas=1, overlay=True)
    simulate.add_argument("--queries", dest="timed_queries", type=int, default=100)
    simulate.add_argument(
        "--warm-queries",
        type=int,
        default=200,
        help="synchronous warmup queries that populate the buckets",
    )
    simulate.add_argument(
        "--drop", type=float, default=0.0, help="message drop probability [0, 1)"
    )
    simulate.add_argument(
        "--fail",
        dest="crash_fraction",
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
        "--retries",
        dest="max_retries",
        type=int,
        default=2,
        help="re-sends after the first attempt",
    )
    simulate.add_argument(
        "--repair-interval",
        dest="repair_interval_ms",
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
        dest="slow_fraction",
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
        dest="sample_interval_ms",
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

    metrics = command(
        "metrics",
        _run_metrics,
        "run a small workload and dump the unified metrics registry",
    )
    _ring_flags(metrics, 200, replicas=1, overlay=True)
    metrics.add_argument("--queries", dest="warm_queries", type=int, default=50)
    _output_flags(
        metrics, "the full registry snapshot", "one JSON document per metric"
    )
    metrics.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="scrape one *live* server's telemetry snapshot instead of "
        "running a local workload (--peers/--queries are ignored)",
    )

    health = command(
        "health",
        _run_health,
        "audit overlay invariants and report per-node load skew",
    )
    _ring_flags(health, 200, replicas=1, overlay=True)
    health.add_argument(
        "--queries",
        dest="warm_queries",
        type=int,
        default=100,
        help="warmup queries that populate the buckets before the audit",
    )
    health.add_argument(
        "--crash",
        dest="crash_fraction",
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
    _output_flags(
        health,
        "the health report and metrics snapshot",
        "one JSON document per metric plus the health report",
    )

    experiments = command(
        "experiments", _run_experiments, "regenerate the paper's figures"
    )
    experiments.add_argument(
        "--scale", choices=("quick", "paper"), default="quick"
    )
    experiments.add_argument("--out", default="results")

    serve = command(
        "serve",
        _run_serve,
        "run one peer as a TCP server (a node of a live cluster)",
    )
    serve.add_argument(
        "--address", required=True,
        help="the peer's logical address; its node id is SHA-1 of this",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    _live_flags(
        serve,
        bootstrap="an existing peer to join through (omit for the first peer)",
        required=False,
    )
    serve.add_argument(
        "--config-json",
        metavar="JSON",
        default=None,
        help="system configuration as JSON (all peers must agree; the "
        "bootstrap peer's config is served to clients via 'hello')",
    )
    _peer_flags(serve, 1_000.0)
    serve.add_argument(
        "--swim-proxies",
        type=int,
        default=2,
        metavar="K",
        help="indirect ping-req proxies tried before suspecting a peer",
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

    cluster = command(
        "cluster",
        _run_cluster,
        "spawn a localhost cluster of serve processes and run a "
        "scripted workload against it",
    )
    _ring_flags(cluster, 8, replicas=3)
    cluster.add_argument(
        "--queries",
        dest="timed_queries",
        type=int,
        default=30,
        help="timed queries to run",
    )
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
    _peer_flags(cluster, 500.0, on=" on every peer")
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
        "--durable",
        action="store_true",
        help="give every peer a --data-dir under a temp root (removed "
        "on exit) so kills can be followed by restarts from disk",
    )
    cluster.add_argument(
        "--data-dir",
        dest="data_root",
        metavar="DIR",
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

    client = command("client", _run_client, "run one query against a live cluster")
    _live_flags(client, query=True, repeat="run the query")

    top = command(
        "top",
        _run_top,
        "live cluster dashboard: per-peer QPS, queue depth, repair "
        "debt, breaker and SWIM state, plus cluster-wide latency "
        "percentiles and load skew",
    )
    _live_flags(top, interval="scrapes")
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
    _output_flags(top, "the final merged cluster view")

    trace = command(
        "trace",
        _run_trace,
        "run one query as a distributed trace and pretty-print the "
        "stitched cross-process span tree",
    )
    _live_flags(
        trace, query=True, repeat="trace the query", interval="traced queries with --follow"
    )
    trace.add_argument(
        "--follow",
        action="store_true",
        help="keep tracing (one query per --interval) until Ctrl-C",
    )
    _output_flags(trace, "the last stitched trace + stitch report")

    command("info", _run_info, "print the default configuration")
    return parser


def _fields(target, args: argparse.Namespace) -> dict:
    """The parsed flags that feed ``target``: those whose ``dest`` is one
    of its parameters (a dataclass's fields)."""
    import inspect

    names = inspect.signature(target).parameters
    return {name: value for name, value in vars(args).items() if name in names}


def _run_demo(args: argparse.Namespace, out) -> int:
    from repro.core.config import SystemConfig
    from repro.core.system import RangeSelectionSystem
    from repro.ranges.interval import IntRange

    config = SystemConfig(**_fields(SystemConfig, args))
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
            **_fields(SystemConfig, args),
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


def _run_simulate(args: argparse.Namespace, out) -> int:
    from repro.core.config import SystemConfig
    from repro.experiments.scenario import Scenario
    from repro.metrics.collector import QueryLog

    config = SystemConfig(**_fields(SystemConfig, args))
    scenario = Scenario(
        config,
        stream="cli/simulate-",
        repair=args.repair_interval_ms > 0,
        **_fields(Scenario, args),
    )
    run = scenario.start()
    engine, repairer, sampler = run.engine, run.repairer, run.sampler
    run.crash()
    low_ms, high_ms = scenario.latency_ms
    print(f"system: {scenario.config.describe()}", file=out)
    print(
        f"faults: drop={scenario.drop:.0%}, crashed {len(run.crashed)}/{run.n_peers} peers; "
        f"link delay [{low_ms:g}, {high_ms:g}] ms, "
        f"timeout {scenario.timeout_ms:g} ms x{scenario.max_retries + 1} attempts; "
        f"replicas={config.replicas}",
        file=out,
    )
    overload_on = (
        config.peer_queue or run.slowed or config.hedge or config.quorum
        or config.breaker or config.adaptive_timeout
    )
    if overload_on:
        print(
            f"overload: queue={config.peer_queue} @ {config.service_rate:g} req/s, "
            f"slow {len(run.slowed)}/{run.n_peers} peers x{scenario.slow_factor:g}, "
            f"hedge={'on' if config.hedge else 'off'}, "
            f"quorum={config.quorum or 'off'}, "
            f"breaker={'on' if config.breaker else 'off'}, "
            f"adaptive={'on' if config.adaptive_timeout else 'off'}",
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
            f"{scenario.sample_interval_ms:g} ms intervals",
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

        print(health_check(run.system).report(), file=out)
    if args.metrics:
        print(run.system.metrics.report("Simulation metrics"), file=out)
    if dead_queries == scenario.timed_queries:
        print(
            f"warning: all {scenario.timed_queries} queries failed (every lookup "
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

    from repro.core.config import SystemConfig
    from repro.experiments.scenario import Scenario

    config = SystemConfig(**_fields(SystemConfig, args))
    system = Scenario(config, **_fields(Scenario, args)).start().system
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

    from repro.core.config import SystemConfig
    from repro.experiments.scenario import Scenario
    from repro.obs.health import TelemetrySampler, health_check

    config = SystemConfig(**_fields(SystemConfig, args))
    run = Scenario(config, stream="cli/health-", **_fields(Scenario, args)).start()
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
    if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise ReproError(f"expected HOST:PORT with a port in 1-65535, got {text!r}")
    return (host, int(port))


def _parse_query(text: str):
    from repro.ranges.interval import IntRange

    start_text, _, end_text = text.partition(":")
    try:
        return IntRange(int(start_text), int(end_text))
    except ValueError as exc:
        raise ReproError(f"bad --query (want START:END): {exc}") from exc


def _connect(args: argparse.Namespace):
    """A client of the ring behind ``--bootstrap``, built only once the
    live loop's pacing flags are checked."""
    from repro.rpc.client import ClusterClient

    if vars(args).get("interval", 1.0) <= 0:
        raise ConfigError("interval must be positive")
    if vars(args).get("iterations", 0) < 0:
        raise ConfigError("iterations cannot be negative")
    return ClusterClient(_parse_endpoint(args.bootstrap))


def _runs(count: int, interval_s: float = 0.0):
    """Run numbers 1, 2, ... ``interval_s`` apart, up to ``count`` (0 =
    until Ctrl-C)."""
    import itertools
    import time

    for number in itertools.count(1):
        yield number
        if number == count:
            return
        time.sleep(interval_s)


def _run_serve(args: argparse.Namespace, out) -> int:
    import asyncio
    import json

    from repro.core.config import SystemConfig
    from repro.rpc import wire
    from repro.rpc.server import PeerServer, run_server

    if args.config_json is not None:
        try:
            config = wire.config_from_wire(json.loads(args.config_json))
        except (ValueError, KeyError, TypeError) as exc:
            raise ReproError(f"bad --config-json: {exc}") from exc
    else:
        config = SystemConfig()
    if not 0 <= args.port <= 65535:
        raise ConfigError("port must be in 0-65535")
    options = _fields(PeerServer, args)
    if args.bootstrap is not None:
        options["bootstrap"] = _parse_endpoint(args.bootstrap)
    try:
        asyncio.run(
            run_server(config=config, wal_fsync=not args.no_wal_fsync, **options)
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
    if args.n_peers < 2:
        raise ReproError("--peers must be at least 2")
    # --data-dir and the restart drills imply --durable.
    args.durable = bool(
        args.durable or args.data_root or args.restart_drill or args.cold_restart
    )
    if args.restart_drill and args.n_peers <= args.replicas:
        raise ReproError(
            "--restart-drill needs --peers > --replicas (a survivor must "
            "remain outside the killed replica set)"
        )
    if args.smoke and args.replicas < 2:
        raise ReproError("--smoke needs --replicas >= 2")
    if args.smoke and (args.swim_interval_ms <= 0 or args.repair_interval_ms <= 0):
        raise ReproError(
            "--smoke needs --swim-interval and --repair-interval > 0 "
            "(the ring heals itself)"
        )
    if args.timed_queries < 1 and (args.smoke or args.restart_drill or args.trace):
        raise ReproError(
            "--smoke, --restart-drill and --trace need --queries >= 1"
        )
    chaos_counts = ChaosSchedule.parse_spec(args.chaos) if args.chaos else None
    config = SystemConfig(**_fields(SystemConfig, args))
    queries = list(
        UniformRangeWorkload(
            config.domain, args.timed_queries, seed=args.seed + 2
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
        args.n_peers, config, **_fields(LocalCluster, args)
    ) as cluster:
        endpoints = ", ".join(
            f"{address}@{host}:{port}"
            for address, (host, port) in cluster.endpoints.items()
        )
        say(f"cluster: {args.n_peers} peers up ({endpoints})")
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
    query = _parse_query(args.query)
    with _connect(args) as client:
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

    from repro.rpc.client import ClusterScraper

    view = None
    with _connect(args) as client:
        scraper = ClusterScraper(client)
        try:
            for _ in _runs(args.iterations, args.interval):
                try:
                    client.refresh()
                except ReproError:
                    pass  # bootstrap hiccup; scrape the mirrored members
                view = scraper.scrape()
                if not args.plain:
                    print("\x1b[2J\x1b[H", end="", file=out)
                print(_render_top(view), file=out)
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

    from repro.obs.distributed import format_trace

    query = _parse_query(args.query)
    last = None
    with _connect(args) as client:
        runs = _runs(0, args.interval) if args.follow else _runs(max(1, args.repeat))
        try:
            for number in runs:
                result, trace, report = client.query_traced(query)
                last = (trace, report)
                print(
                    f"run {number}: matched={result.matched} "
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


def _run_info(args: argparse.Namespace, out) -> int:
    from repro.core.config import SystemConfig
    from repro.lsh.theory import group_match_probability

    config = SystemConfig()
    print(f"default config: {config.describe()}", file=out)
    print(
        "LSH theory: match probability at similarity 0.9 is "
        f"{group_match_probability(0.9, config.k, config.l):.2f} "
        f"(k={config.k}, l={config.l})",
        file=out,
    )
    return 0


def _in_flag_terms(parser: argparse.ArgumentParser, command: str, message: str) -> str:
    """``message`` with each whole-word field name that ``command`` has a
    flag for replaced by that flag, looked up from the parser's ``dest``s:
    a ``SystemConfig`` or ``Scenario`` complaint in the user's terms."""
    import re

    commands = next(
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        action.dest: action.option_strings[-1]
        for action in commands[command]._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }
    pattern = r"(?<![\w-])(" + "|".join(map(re.escape, flags)) + r")(?![\w-])"
    return re.sub(pattern, lambda match: flags[match[1]], message)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs.log import configure_logging

        configure_logging(args.verbose)
    try:
        return args.run(args, out)
    except ReproError as exc:
        message = str(exc)
        if isinstance(exc, ConfigError):
            message = _in_flag_terms(parser, args.command, message)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
