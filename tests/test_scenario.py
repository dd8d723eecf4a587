"""Tests for the shared scenario runner (``repro.experiments.scenario``)."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments.scenario import Scenario, jittered_tiles, tile_ranges
from repro.ranges.domain import Domain
from repro.util.rng import derive_rng

CONFIG = SystemConfig(n_peers=30, seed=3)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"warm_queries": 0},
            {"warm_queries": -3},
            {"warm_queries": 10, "tile_width": 30},
            {"tile_width": -1},
            {"timed_queries": 0},
            {"latency_ms": (100.0, 10.0)},
            {"latency_ms": (-1.0, 10.0)},
            {"drop": 1.0},
            {"crash_fraction": -0.1},
            {"slow_fraction": 1.5, "timed_queries": 5},
            {"slow_fraction": 0.1},
            {"slow_factor": 0.5},
            {"timeout_ms": 0.0},
            {"max_retries": -1},
            {"backoff": 0.5},
            {"repair_interval_ms": -5.0},
            {"sample_interval_ms": -1.0},
            {"sample_interval_ms": 500.0},
            {"repair": True, "repair_interval_ms": 0.0},
        ],
    )
    def test_bad_value_is_a_config_error(self, bad):
        fields = {"warm_queries": 10, **bad}
        with pytest.raises(ConfigError):
            Scenario(CONFIG, **fields)

    def test_repair_requires_chord(self):
        with pytest.raises(ConfigError, match="chord"):
            Scenario(
                SystemConfig(n_peers=30, overlay="can"), warm_queries=5, repair=True
            )

    @pytest.mark.parametrize(
        "argv",
        [
            "simulate --queries 0",
            "simulate --warm-queries 0",
            "simulate --queries -3",
            "health --queries 0",
            "metrics --queries 0",
        ],
    )
    def test_cli_rejects_a_count_before_any_output(self, argv, capsys):
        out = io.StringIO()
        code = main([*argv.split(), "--peers", "20"], out=out)
        assert (code, out.getvalue()) == (1, "")
        assert capsys.readouterr().err.startswith("error:")


class TestRun:
    def test_synchronous_run_has_no_engine(self):
        run = Scenario(CONFIG, warm_queries=10, crash_fraction=0.2).start()
        assert run.engine is None and run.repairer is None
        assert len(run.crashed) == 6
        run.crash()
        assert all(not run.system.network.is_alive(peer) for peer in run.crashed)

    def test_picks_come_from_the_named_stream(self):
        scenario = Scenario(
            CONFIG, stream="a/", warm_queries=10, timed_queries=5, crash_fraction=0.2
        )
        run = scenario.start()
        node_ids = run.system.router.node_ids
        rng = derive_rng(CONFIG.seed, "a/crashes")
        expected = rng.choice(len(node_ids), size=6, replace=False)
        assert run.crashed == tuple(node_ids[int(i)] for i in expected)

    def test_crash_waves_cover_the_picked_set_once(self):
        run = Scenario(
            CONFIG, warm_queries=10, timed_queries=5, crash_fraction=0.3
        ).start()
        for wave in range(3):
            run.crash(wave, 3)
        alive = run.engine.net.is_alive
        assert [peer for peer in run.system.router.node_ids if not alive(peer)] == (
            sorted(run.crashed)
        )

    def test_tile_warmup_and_jittered_queries(self):
        domain = Domain("value", 0, 100)
        run = Scenario(
            SystemConfig(n_peers=30, seed=3, domain=domain),
            stream="t/",
            tile_width=30,
            timed_queries=40,
        ).start()
        assert [(t.start, t.end) for t in run.tiles] == [(0, 29), (30, 59), (60, 89)]
        queries = run.queries()
        assert len(queries) == 40 and queries == run.queries()
        starts = {tile.start for tile in run.tiles}
        for query in queries:
            assert query.end - query.start == 29
            assert domain.low <= query.start and query.end <= domain.high
            assert query.start - 1 in starts or query.start + 1 in starts


def test_tile_ranges_drop_the_short_remainder():
    tiles = tile_ranges(Domain("value", 0, 1000), 30)
    assert len(tiles) == 33 and tiles[-1].end == 989


def test_jittered_tiles_turn_inwards_at_the_edges():
    domain = Domain("value", 0, 9)
    halves = tile_ranges(domain, 5)
    stream = jittered_tiles(domain, halves, derive_rng(1, "edge"))
    seen = {(q.start, q.end) for q, _ in zip(stream, range(50))}
    assert seen == {(1, 5), (4, 8)}
