"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

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
        assert args.peers == 200
        assert args.overlay == "chord"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flood"])


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
    """``repro client`` and ``repro trace`` reject a bad ``--query``
    before they connect: a ``ClusterClient`` that refuses to be built
    proves it."""

    @pytest.fixture(autouse=True)
    def no_connection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ClusterClient built before --query was parsed")

        monkeypatch.setattr("repro.rpc.client.ClusterClient", refuse)

    @pytest.mark.parametrize("command", ["trace", "client"])
    def test_bad_query_is_rejected_without_a_connection(self, command, capsys):
        code, text = run_cli(command, "--bootstrap", "h:1", "--query", "x:y")
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("error: bad --query")

    def test_good_query_reaches_the_connection(self):
        with pytest.raises(AssertionError, match="ClusterClient built"):
            run_cli("trace", "--bootstrap", "h:1", "--query", "3:9")
