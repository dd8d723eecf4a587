"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import io
import json
import socket

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n_peers == 200
        assert args.overlay == "chord"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flood"])


#: Every option of every subcommand: (action kind, default, type, choices,
#: required, nargs, metavar), keyed by its option strings (a positional by
#: its name).  ``dest`` and help text are free to change; what a user types
#: and gets is not.
PARSER_SURFACE = {
    'repro': {
        '-v --verbose': ('Count', 0, None, None, False, 0, None),
    },
    'demo': {
        '--peers': ('Store', 200, int, None, False, None, None),
        '--seed': ('Store', 7, int, None, False, None, None),
        '--overlay': ('Store', 'chord', None, ('chord', 'can'), False, None, None),
    },
    'sql': {
        'statement': ('Store', None, None, None, True, None, None),
        '--patients': ('Store', 1000, int, None, False, None, None),
        '--peers': ('Store', 100, int, None, False, None, None),
        '--seed': ('Store', 11, int, None, False, None, None),
        '--explain': ('StoreTrue', False, None, None, False, 0, None),
        '--repeat': ('Store', 1, int, None, False, None, None),
    },
    'simulate': {
        '--peers': ('Store', 1000, int, None, False, None, None),
        '--queries': ('Store', 100, int, None, False, None, None),
        '--warm-queries': ('Store', 200, int, None, False, None, None),
        '--seed': ('Store', 7, int, None, False, None, None),
        '--drop': ('Store', 0.0, float, None, False, None, None),
        '--fail': ('Store', 0.0, float, None, False, None, None),
        '--latency-ms': ('Store', (10.0, 100.0), float, None, False, 2, ('LOW', 'HIGH')),
        '--timeout-ms': ('Store', 400.0, float, None, False, None, None),
        '--retries': ('Store', 2, int, None, False, None, None),
        '--replicas': ('Store', 1, int, None, False, None, None),
        '--repair-interval': ('Store', 0.0, float, None, False, None, 'MS'),
        '--peer-queue': ('Store', 0, int, None, False, None, 'N'),
        '--service-rate': ('Store', 0.0, float, None, False, None, 'QPS'),
        '--hedge': ('StoreTrue', False, None, None, False, 0, None),
        '--quorum': ('Store', 0, int, None, False, None, 'M'),
        '--breaker': ('StoreTrue', False, None, None, False, 0, None),
        '--adaptive-timeout': ('StoreTrue', False, None, None, False, 0, None),
        '--slow': ('Store', 0.0, float, None, False, None, 'FRACTION'),
        '--slow-factor': ('Store', 4.0, float, None, False, None, 'X'),
        '--overlay': ('Store', 'chord', None, ('chord', 'can'), False, None, None),
        '--trace': ('Store', None, None, None, False, None, 'FILE'),
        '--metrics': ('StoreTrue', False, None, None, False, 0, None),
        '--sample-interval': ('Store', 0.0, float, None, False, None, 'MS'),
        '--health': ('StoreTrue', False, None, None, False, 0, None),
    },
    'metrics': {
        '--peers': ('Store', 200, int, None, False, None, None),
        '--queries': ('Store', 50, int, None, False, None, None),
        '--seed': ('Store', 7, int, None, False, None, None),
        '--replicas': ('Store', 1, int, None, False, None, None),
        '--overlay': ('Store', 'chord', None, ('chord', 'can'), False, None, None),
        '--json': ('Store', None, None, None, False, None, 'FILE'),
        '--jsonl': ('Store', None, None, None, False, None, 'FILE'),
        '--connect': ('Store', None, None, None, False, None, 'HOST:PORT'),
    },
    'health': {
        '--peers': ('Store', 200, int, None, False, None, None),
        '--queries': ('Store', 100, int, None, False, None, None),
        '--seed': ('Store', 7, int, None, False, None, None),
        '--replicas': ('Store', 1, int, None, False, None, None),
        '--overlay': ('Store', 'chord', None, ('chord', 'can'), False, None, None),
        '--crash': ('Store', 0.0, float, None, False, None, 'FRACTION'),
        '--repair': ('StoreTrue', False, None, None, False, 0, None),
        '--top': ('Store', 5, int, None, False, None, None),
        '--json': ('Store', None, None, None, False, None, 'FILE'),
        '--jsonl': ('Store', None, None, None, False, None, 'FILE'),
    },
    'experiments': {
        '--scale': ('Store', 'quick', None, ('quick', 'paper'), False, None, None),
        '--out': ('Store', 'results', None, None, False, None, None),
    },
    'serve': {
        '--address': ('Store', None, None, None, True, None, None),
        '--host': ('Store', '127.0.0.1', None, None, False, None, None),
        '--port': ('Store', 0, int, None, False, None, None),
        '--bootstrap': ('Store', None, None, None, False, None, 'HOST:PORT'),
        '--config-json': ('Store', None, None, None, False, None, 'JSON'),
        '--swim-interval': ('Store', 1000.0, float, None, False, None, 'MS'),
        '--suspect-timeout': ('Store', None, float, None, False, None, 'MS'),
        '--swim-proxies': ('Store', 2, int, None, False, None, 'K'),
        '--repair-interval': ('Store', 1000.0, float, None, False, None, 'MS'),
        '--flight-dir': ('Store', None, None, None, False, None, 'DIR'),
        '--data-dir': ('Store', None, None, None, False, None, 'DIR'),
        '--compact-every': ('Store', 512, int, None, False, None, 'N'),
        '--no-wal-fsync': ('StoreTrue', False, None, None, False, 0, None),
    },
    'cluster': {
        '--peers': ('Store', 8, int, None, False, None, None),
        '--replicas': ('Store', 3, int, None, False, None, None),
        '--queries': ('Store', 30, int, None, False, None, None),
        '--seed': ('Store', 7, int, None, False, None, None),
        '--smoke': ('StoreTrue', False, None, None, False, 0, None),
        '--chaos': ('Store', None, None, None, False, None, 'SCHEDULE'),
        '--swim-interval': ('Store', 500.0, float, None, False, None, 'MS'),
        '--suspect-timeout': ('Store', None, float, None, False, None, 'MS'),
        '--repair-interval': ('Store', 500.0, float, None, False, None, 'MS'),
        '--recovery-timeout': ('Store', 90.0, float, None, False, None, 'S'),
        '--hold': ('StoreTrue', False, None, None, False, 0, None),
        '--trace': ('Store', None, None, None, False, None, 'FILE'),
        '--telemetry': ('Store', None, None, None, False, None, 'FILE'),
        '--flight-dir': ('Store', None, None, None, False, None, 'DIR'),
        '--durable': ('StoreTrue', False, None, None, False, 0, None),
        '--data-dir': ('Store', None, None, None, False, None, 'DIR'),
        '--restart-drill': ('StoreTrue', False, None, None, False, 0, None),
        '--cold-restart': ('StoreTrue', False, None, None, False, 0, None),
    },
    'client': {
        '--bootstrap': ('Store', None, None, None, True, None, 'HOST:PORT'),
        '--query': ('Store', None, None, None, True, None, 'START:END'),
        '--repeat': ('Store', 1, int, None, False, None, None),
    },
    'top': {
        '--bootstrap': ('Store', None, None, None, True, None, 'HOST:PORT'),
        '--interval': ('Store', 2.0, float, None, False, None, 'S'),
        '--iterations': ('Store', 0, int, None, False, None, 'N'),
        '--plain': ('StoreTrue', False, None, None, False, 0, None),
        '--json': ('Store', None, None, None, False, None, 'FILE'),
    },
    'trace': {
        '--bootstrap': ('Store', None, None, None, True, None, 'HOST:PORT'),
        '--query': ('Store', None, None, None, True, None, 'START:END'),
        '--repeat': ('Store', 1, int, None, False, None, None),
        '--follow': ('StoreTrue', False, None, None, False, 0, None),
        '--interval': ('Store', 2.0, float, None, False, None, 'S'),
        '--json': ('Store', None, None, None, False, None, 'FILE'),
    },
    'info': {
    },
}


def _surface(parser) -> dict:
    return {
        " ".join(action.option_strings) or action.dest: (
            type(action).__name__.strip("_").removesuffix("Action"),
            action.default,
            action.type,
            tuple(action.choices) if action.choices else None,
            action.required,
            action.nargs,
            action.metavar,
        )
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


class TestParserSurface:
    def test_every_subcommand_keeps_its_options(self):
        parser = build_parser()
        commands = next(
            action.choices
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        surface = {"repro": _surface(parser)}
        surface.update((name, _surface(command)) for name, command in commands.items())
        assert surface == PARSER_SURFACE


class TestDemo:
    def test_demo_runs(self):
        code, text = run_cli("demo", "--peers", "50", "--seed", "3")
        assert code == 0
        assert "query [30, 50]" in text
        assert "query [30, 49]" in text

    def test_demo_on_can(self):
        code, text = run_cli("demo", "--peers", "40", "--overlay", "can")
        assert code == 0
        assert "matched" in text


class TestSql:
    def test_explain(self):
        code, text = run_cli(
            "sql",
            "SELECT name FROM Patient WHERE age BETWEEN 30 AND 50",
            "--explain",
            "--patients",
            "50",
        )
        assert code == 0
        assert "Project" in text and "Select" in text

    def test_execute_with_repeat_shows_caching(self):
        code, text = run_cli(
            "sql",
            "SELECT name FROM Patient WHERE age BETWEEN 30 AND 50",
            "--patients",
            "100",
            "--peers",
            "30",
            "--repeat",
            "2",
        )
        assert code == 0
        assert "run 1:" in text and "run 2:" in text
        assert "source accesses: 1" in text  # the repeat came from cache

    def test_sql_error_is_reported(self, capsys):
        code, _ = run_cli("sql", "SELECT FROM WHERE", "--patients", "10")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_simulate_reports_phase_latencies(self):
        code, text = run_cli(
            "simulate",
            "--peers", "60",
            "--queries", "10",
            "--warm-queries", "20",
            "--seed", "3",
        )
        assert code == 0
        assert "p95 ms" in text
        assert "route" in text and "store" in text
        assert "mean recall" in text
        assert "traffic:" in text

    def test_simulate_with_faults_counts_them(self):
        code, text = run_cli(
            "simulate",
            "--peers", "60",
            "--queries", "10",
            "--warm-queries", "20",
            "--drop", "0.3",
            "--fail", "0.2",
            "--timeout-ms", "300",
            "--seed", "3",
        )
        assert code == 0
        assert "crashed 12/60 peers" in text
        assert "dropped" in text

    def test_simulate_with_replication_and_repair(self):
        code, text = run_cli(
            "simulate",
            "--peers", "60",
            "--queries", "10",
            "--warm-queries", "20",
            "--fail", "0.2",
            "--replicas", "3",
            "--repair-interval", "2000",
            "--timeout-ms", "300",
            "--seed", "3",
        )
        assert code == 0
        assert "replicas=3" in text
        assert "failovers" in text
        assert "repair:" in text and "rounds" in text

    def test_simulate_rejects_bad_replicas(self, capsys):
        for count in ("--replicas 0", "--retries -1", "--queries 0"):
            code, _ = run_cli("simulate", "--peers", "20", *count.split())
            assert code == 1
            assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_negative_repair_interval(self, capsys):
        for interval in ("--repair-interval -5", "--timeout-ms 0"):
            code, _ = run_cli(
                "simulate", "--peers", "20", *interval.split()
            )
            assert code == 1
            assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_bad_probability(self, capsys):
        code, _ = run_cli("simulate", "--peers", "20", "--drop", "1.5")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_rejects_inverted_latency_bounds(self, capsys):
        code, _ = run_cli("simulate", "--peers", "20", "--latency-ms", "100", "10")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateOverload:
    def test_protections_run_and_are_summarized(self):
        code, text = run_cli(
            "simulate",
            "--peers", "40",
            "--queries", "8",
            "--warm-queries", "20",
            "--replicas", "3",
            "--peer-queue", "4",
            "--service-rate", "50",
            "--hedge",
            "--quorum", "3",
            "--breaker",
            "--adaptive-timeout",
            "--slow", "0.2",
            "--slow-factor", "8",
            "--seed", "3",
        )
        assert code == 0
        assert "overload:" in text
        assert "slow 8/40 peers" in text
        assert "quorum=3" in text

    def test_default_run_has_no_overload_line(self):
        code, text = run_cli(
            "simulate", "--peers", "40", "--queries", "5",
            "--warm-queries", "10", "--seed", "3",
        )
        assert code == 0
        assert "overload:" not in text
        assert "busy-shed" not in text

    def test_all_queries_failing_warns_and_exits_nonzero(self, capsys):
        # A single service slot that takes ~3 virtual hours per request:
        # the first request parks in it forever and everything else sheds.
        code, text = run_cli(
            "simulate",
            "--peers", "30",
            "--queries", "3",
            "--warm-queries", "1",
            "--peer-queue", "1",
            "--service-rate", "0.0001",
            "--timeout-ms", "50",
            "--seed", "3",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "warning: all 3 queries failed" in err
        assert "mean recall" in text  # the report still renders

    def test_rejects_bad_slow_fraction(self, capsys):
        code, _ = run_cli("simulate", "--peers", "20", "--slow", "1.5")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_bad_slow_factor(self, capsys):
        code, _ = run_cli(
            "simulate", "--peers", "20", "--slow", "0.1", "--slow-factor", "0.5"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_queue_without_service_rate(self, capsys):
        code, _ = run_cli("simulate", "--peers", "20", "--peer-queue", "4")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInfo:
    def test_info_prints_defaults(self):
        code, text = run_cli("info")
        assert code == 0
        assert "k=20" in text
        assert "match probability" in text


class TestExperiments:
    def test_experiments_quick_writes_reports(self, tmp_path, monkeypatch):
        # Restrict to a fast subset by monkeypatching the job list is
        # intrusive; instead just verify dispatch with a tiny custom out dir
        # and the quick scale, trusting experiment tests for content.
        import repro.experiments.runall as runall_module

        called = {}

        def fake_run_all(scale: str, results_dir) -> None:
            called["scale"] = scale
            called["dir"] = results_dir

        monkeypatch.setattr(runall_module, "run_all", fake_run_all)
        code, _ = run_cli("experiments", "--scale", "quick", "--out", str(tmp_path))
        assert code == 0
        assert called == {"scale": "quick", "dir": str(tmp_path)}


class TestHealth:
    def test_health_clean_system(self):
        code, text = run_cli(
            "health", "--peers", "60", "--queries", "30", "--replicas", "3"
        )
        assert code == 0
        assert "Health: OK" in text
        assert "Load skew" in text

    def test_health_crash_and_repair_round_trip(self):
        code, text = run_cli(
            "health",
            "--peers", "60",
            "--queries", "30",
            "--replicas", "3",
            "--crash", "0.2",
            "--repair",
        )
        assert code == 0
        assert "crashed 12/60 peers" in text
        assert "Health: VIOLATIONS" in text
        assert "replica-deficit" in text
        assert "re-audit:" in text
        # The final report (post-repair) is clean again.
        assert text.rstrip().count("Health:") == 2
        assert "Health: OK" in text.split("re-audit:")[1]

    def test_health_json_and_jsonl_outputs(self, tmp_path):
        json_path = tmp_path / "health.json"
        jsonl_path = tmp_path / "health.jsonl"
        code, text = run_cli(
            "health",
            "--peers", "40",
            "--queries", "20",
            "--json", str(json_path),
            "--jsonl", str(jsonl_path),
        )
        assert code == 0
        document = json.loads(json_path.read_text())
        assert document["health"]["ok"] is True
        assert document["health"]["n_peers"] == 40
        assert {m["name"] for m in document["metrics"]["metrics"]} >= {
            "health.node.partitions",
            "health.replica_deficit",
        }
        lines = jsonl_path.read_text().strip().splitlines()
        assert json.loads(lines[-1])["health"]["ok"] is True

    def test_health_on_can_overlay(self):
        code, text = run_cli(
            "health", "--peers", "40", "--queries", "20", "--overlay", "can"
        )
        assert code == 0
        assert "Health: OK" in text

    def test_health_rejects_bad_crash_fraction(self, capsys):
        code, _ = run_cli("health", "--peers", "20", "--crash", "1.0")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_health_repair_requires_chord(self, capsys):
        code, _ = run_cli(
            "health", "--peers", "20", "--overlay", "can", "--repair"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestOverlaySelection:
    def test_simulate_on_can(self):
        code, text = run_cli(
            "simulate", "--peers", "30", "--queries", "5", "--overlay", "can"
        )
        assert code == 0
        assert "traffic:" in text

    def test_simulate_can_rejects_replication(self, capsys):
        code, _ = run_cli(
            "simulate", "--peers", "30", "--overlay", "can", "--replicas", "3"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_simulate_can_rejects_repair(self, capsys):
        code, _ = run_cli(
            "simulate", "--peers", "30", "--overlay", "can",
            "--repair-interval", "1000",
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_metrics_on_can(self):
        code, text = run_cli(
            "metrics", "--peers", "30", "--queries", "5", "--overlay", "can"
        )
        assert code == 0
        assert "Metrics after workload" in text


class TestSimulateSampling:
    def test_sample_interval_with_health_report(self):
        code, text = run_cli(
            "simulate",
            "--peers", "40",
            "--queries", "10",
            "--replicas", "3",
            "--sample-interval", "500",
            "--health",
        )
        assert code == 0
        assert "sampler:" in text
        assert "samples at 500 ms intervals" in text
        assert "Health: OK" in text

    def test_negative_sample_interval_rejected(self, capsys):
        code, _ = run_cli(
            "simulate", "--peers", "20", "--sample-interval", "-1"
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_verbose_flag_accepted(self):
        code, _ = run_cli("-v", "demo", "--peers", "30")
        assert code == 0


class TestClusterValidatesBeforeSpawning:
    """Every argv check of ``repro cluster`` runs before the first peer
    process exists: a ``LocalCluster`` that refuses to be built proves it."""

    @pytest.fixture(autouse=True)
    def no_processes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LocalCluster built before argv was checked")

        monkeypatch.setattr("repro.rpc.cluster.LocalCluster", refuse)

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            ("--peers 1", "--peers must be at least 2"),
            ("--smoke --replicas 1", "--smoke needs --replicas >= 2"),
            ("--smoke --swim-interval 0", "--smoke needs --swim-interval"),
            ("--smoke --repair-interval 0", "--smoke needs --swim-interval"),
            ("--smoke --queries 0", "need --queries >= 1"),
            ("--chaos explode=1", "unknown chaos action 'explode'"),
            ("--chaos kill=many", "must be an integer"),
            ("--chaos ,", "empty chaos spec"),
            ("--chaos kill=0", "chaos count in 'kill=0' must be positive"),
            ("--chaos pause=1,kill=-1", "chaos count in 'kill=-1' must be positive"),
            ("--restart-drill --peers 3", "needs --peers > --replicas"),
        ],
    )
    def test_bad_argv_is_rejected_without_a_cluster(self, argv, complaint, capsys):
        code, text = run_cli("cluster", *argv.split())
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error:") and complaint in err

    def test_good_argv_reaches_the_cluster(self):
        with pytest.raises(AssertionError, match="LocalCluster built"):
            run_cli("cluster", "--smoke", "--chaos", "kill=1,partition=1")


class TestClientCommandsParseTheQueryFirst:
    """``repro client``, ``trace`` and ``top`` reject a bad ``--query``,
    ``--interval``, ``--iterations`` or ``--bootstrap`` port before they
    connect: a ``ClusterClient`` that refuses to be built proves it."""

    @pytest.fixture(autouse=True)
    def no_connection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ClusterClient built before argv was checked")

        monkeypatch.setattr("repro.rpc.client.ClusterClient", refuse)

    @pytest.mark.parametrize("command", ["trace", "client"])
    def test_bad_query_is_rejected_without_a_connection(self, command, capsys):
        code, text = run_cli(command, "--bootstrap", "h:1", "--query", "x:y")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("error: bad --query")

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            ("trace --query 10:50 --follow --interval=-1", "--interval must be positive"),
            ("trace --query 10:50 --follow --interval 0", "--interval must be positive"),
            ("top --interval 0", "--interval must be positive"),
            ("top --iterations=-2", "--iterations cannot be negative"),
            (
                "client --query 1:5 --bootstrap h:70000",
                "expected HOST:PORT with a port in 1-65535, got 'h:70000'",
            ),
            ("top --bootstrap h:0", "expected HOST:PORT with a port in 1-65535, got 'h:0'"),
        ],
    )
    def test_bad_pacing_is_rejected_without_a_connection(self, argv, complaint, capsys):
        command, *rest = argv.split()
        code, text = run_cli(command, "--bootstrap", "h:1", *rest)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {complaint}\n"

    def test_good_query_reaches_the_connection(self):
        with pytest.raises(AssertionError, match="ClusterClient built"):
            run_cli("trace", "--bootstrap", "h:1", "--query", "3:9")


class TestUnreachableEndpoint:
    """A command whose endpoint refuses the connection names that
    ``HOST:PORT``; a control exchange carries no peer id to name."""

    @pytest.fixture
    def closed_port(self) -> int:
        with socket.socket() as bound:
            bound.bind(("127.0.0.1", 0))
            return bound.getsockname()[1]

    @pytest.mark.parametrize(
        "argv",
        [
            "metrics --connect {endpoint}",
            "client --bootstrap {endpoint} --query 1:5",
            "top --bootstrap {endpoint}",
        ],
    )
    def test_the_error_names_the_endpoint(self, argv, closed_port, capsys):
        endpoint = f"127.0.0.1:{closed_port}"
        code, text = run_cli(*argv.format(endpoint=endpoint).split())
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: {endpoint} is unreachable\n"


class TestErrorsNameTheFlag:
    """A ``SystemConfig`` / ``Scenario`` complaint comes back in the
    terms the user typed: the flag, not the field it feeds."""

    @pytest.mark.parametrize(
        "argv, flag, field",
        [
            ("simulate --peers 20 --queries 0", "--queries", "timed_queries"),
            ("simulate --peers 20 --fail 1.2", "--fail", "crash_fraction"),
            ("health --peers 20 --crash 1.5", "--crash", "crash_fraction"),
            ("demo --peers 0", "--peers", "n_peers"),
            ("simulate --peers 20 --replicas 0", "--replicas", "replicas"),
            ("simulate --peers 20 --peer-queue 4", "--service-rate", "service_rate"),
            ("serve --address a --port 70000", "--port", "port"),
            ("serve --address a --port=-1", "--port", "port"),
        ],
    )
    def test_the_error_names_the_flag(self, argv, flag, field, capsys):
        code, text = run_cli(*argv.split())
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert field not in err.replace(flag, "")
