"""One scenario runner: the shared prefix of every fault run.

``repro simulate`` / ``health`` / ``metrics`` and the fault experiments
(event latency, churn recall, health under churn, overload) start the same
way: build a ring, warm it, put the event-driven engine over a seeded
latency band, and pick which peers to damage.  A :class:`Scenario` checks
every input when it is constructed (:class:`~repro.errors.ConfigError`, so
the library and the CLI reject a bad value alike, before any output) and
:meth:`Scenario.start` runs the prefix.  What follows (crash waves, repair,
sampling, timed queries) stays with each caller, in the order that
produces its seeded output.  The four fault experiments share more: a
:class:`FaultSweep` declares their common inputs and starts each cell's
scenario, and a :class:`CellTable` holds the measured cells.

Seeds: warm-up queries use ``seed + 1``, uniform timed queries
``seed + 2``; crash, slow and jitter picks draw from the ``derive_rng``
streams ``<stream>crashes``, ``<stream>slow`` and ``<stream>jitter``.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, asdict, dataclass, field
from itertools import islice
from typing import Generic, Iterator, TypeVar

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.errors import ConfigError
from repro.experiments.fig6_7_quality import PAPER_DOMAIN
from repro.metrics.report import format_table
from repro.net.latency import SeededLatency
from repro.obs.health import TelemetrySampler
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.sim.network import RetryPolicy
from repro.sim.query import AsyncQueryEngine
from repro.sim.repair import ReplicaRepairer
from repro.util.rng import derive_rng
from repro.workloads.generators import UniformRangeWorkload

__all__ = [
    "CellTable",
    "FaultSweep",
    "ReplicationMode",
    "Scenario",
    "ScenarioRun",
    "jittered_tiles",
    "tile_ranges",
]

Cell = TypeVar("Cell")


@dataclass(frozen=True)
class ReplicationMode:
    """One replication configuration under test."""

    replicas: int
    repair: bool

    @property
    def label(self) -> str:
        suffix = "+repair" if self.repair else ""
        return f"r={self.replicas}{suffix}"


def tile_ranges(domain: Domain, width: int) -> list[IntRange]:
    """The disjoint width-``width`` tiles of ``domain`` from its low end
    (a shorter remainder is left out)."""
    return [
        IntRange(start, start + width - 1)
        for start in range(domain.low, domain.high - width + 2, width)
    ]


def jittered_tiles(domain: Domain, tiles: list[IntRange], rng) -> Iterator[IntRange]:
    """Endless random tiles, each shifted one unit left or right (inwards
    at a domain edge)."""
    while True:
        tile = tiles[int(rng.integers(len(tiles)))]
        shift = 1 if rng.integers(2) else -1
        if tile.start + shift < domain.low or tile.end + shift > domain.high:
            shift = -shift
        yield IntRange(tile.start + shift, tile.end + shift)


@dataclass(frozen=True)
class Scenario:
    """The inputs of a run's shared prefix.

    The ring is warmed with ``warm_queries`` synchronous uniform queries or,
    with ``tile_width``, by storing one partition per tile.  Only a run with
    ``timed_queries`` gets the event-driven engine.  ``timeout_ms`` /
    ``max_retries`` / ``backoff`` are the engine's :class:`RetryPolicy` (an
    experiment passes ``**asdict(policy)``).
    """

    config: SystemConfig
    #: Prefix of the run's RNG stream names, e.g. ``"overload/"``.
    stream: str = "scenario/"
    warm_queries: int = 0
    tile_width: int = 0
    timed_queries: int | None = None
    latency_ms: tuple[float, float] = (10.0, 100.0)
    drop: float = 0.0
    timeout_ms: float = 400.0
    max_retries: int = 2
    backoff: float = 2.0
    crash_fraction: float = 0.0
    slow_fraction: float = 0.0
    slow_factor: float = 4.0
    #: The caller heals lost replicas (with an engine, the run carries a
    #: periodic repairer for it).
    repair: bool = False
    repair_interval_ms: float = 5_000.0
    #: Period of the health sampler on the engine's clock (0 = none).
    sample_interval_ms: float = 0.0

    def __post_init__(self) -> None:
        low, high = self.latency_ms
        timed = self.timed_queries
        checks = (
            (self.tile_width >= 0, "tile_width cannot be negative"),
            (not (self.tile_width and self.warm_queries), "warm with queries or tiles, not both"),
            (self.tile_width or self.warm_queries > 0, "warm_queries must be positive"),
            (timed is None or timed > 0, "timed_queries must be positive"),
            (0.0 <= low <= high, "latency_ms needs 0 <= low <= high"),
            (0.0 <= self.drop < 1.0, "drop must be within [0, 1)"),
            (self.timeout_ms > 0, "timeout_ms must be positive"),
            (self.max_retries >= 0, "max_retries cannot be negative"),
            (self.backoff >= 1.0, "backoff must be >= 1"),
            (0.0 <= self.crash_fraction < 1.0, "crash_fraction must be within [0, 1)"),
            (0.0 <= self.slow_fraction < 1.0, "slow_fraction must be within [0, 1)"),
            (self.slow_factor >= 1.0, "slow_factor must be >= 1"),
            (not self.slow_fraction or timed, "slow peers need timed_queries"),
            (self.repair_interval_ms >= 0, "repair_interval_ms cannot be negative"),
            (self.sample_interval_ms >= 0, "sample_interval_ms cannot be negative"),
            (not self.sample_interval_ms or timed, "sampling needs timed_queries"),
            (not self.repair or self.repair_interval_ms, "repair needs an interval"),
            (not self.repair or self.config.overlay == "chord", "repair requires chord"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def start(self) -> ScenarioRun:
        """Build and warm the ring, put the engine on it, slow the slow set
        and pick the crash set."""
        config, seed = self.config, self.config.seed
        system = RangeSelectionSystem(config)
        tiles = tile_ranges(config.domain, self.tile_width) if self.tile_width else []
        for tile in tiles:
            system.store_partition(tile)
        if not self.tile_width:
            warm = UniformRangeWorkload(config.domain, self.warm_queries, seed=seed + 1)
            for query in warm.ranges():
                system.query(query)
        engine = repairer = sampler = None
        if timed := self.timed_queries:
            engine = AsyncQueryEngine(
                system,
                latency=SeededLatency(*self.latency_ms, seed=seed),
                drop_probability=self.drop,
                policy=RetryPolicy(self.timeout_ms, self.max_retries, self.backoff),
                seed=seed,
            )
        slowed = self._pick(system, self.slow_fraction, "slow")
        for peer_id in slowed:
            engine.slow_peer(
                peer_id, latency_factor=self.slow_factor, service_factor=self.slow_factor
            )
        if self.repair and timed:
            repairer = ReplicaRepairer(engine, interval_ms=self.repair_interval_ms)
        if self.sample_interval_ms:
            sampler = TelemetrySampler(
                system, sim=engine.sim, interval_ms=self.sample_interval_ms
            )
        crashed = self._pick(system, self.crash_fraction, "crashes")
        return ScenarioRun(self, system, engine, tiles, crashed, slowed, repairer, sampler)

    def _pick(self, system: RangeSelectionSystem, fraction: float, name: str) -> tuple[int, ...]:
        """A seeded ``fraction`` of the ring's peers from ``<stream><name>``."""
        node_ids = system.router.node_ids
        count = int(round(fraction * len(node_ids)))
        rng = derive_rng(self.config.seed, self.stream + name)
        return tuple(
            node_ids[int(index)]
            for index in rng.choice(len(node_ids), size=count, replace=False)
        )


@dataclass
class ScenarioRun:
    """A started scenario: the warmed system and what damages it."""

    scenario: Scenario
    system: RangeSelectionSystem
    engine: AsyncQueryEngine | None
    #: The partitions a tile warm-up stored (empty after a query warm-up).
    tiles: list[IntRange]
    #: Peers picked to crash; :meth:`crash` crashes them.
    crashed: tuple[int, ...]
    #: Peers already slowed by ``slow_factor``.
    slowed: tuple[int, ...]
    repairer: ReplicaRepairer | None
    sampler: TelemetrySampler | None

    @property
    def n_peers(self) -> int:
        return len(self.system.router.node_ids)

    def crash(self, wave: int = 0, waves: int = 1) -> None:
        """Crash wave ``wave`` of ``waves`` of the picked peers (all of them
        by default); the engine, if any, runs on the system's crashed set."""
        for peer_id in self.crashed[wave::waves]:
            self.system.crash_peer(peer_id)

    def queries(self) -> list[IntRange]:
        """The timed queries: jittered tiles after a tile warm-up, else a
        uniform workload."""
        scenario, count = self.scenario, self.scenario.timed_queries
        seed, domain = scenario.config.seed, scenario.config.domain
        if scenario.tile_width:
            rng = derive_rng(seed, scenario.stream + "jitter")
            return list(islice(jittered_tiles(domain, self.tiles, rng), count))
        return UniformRangeWorkload(domain, count, seed=seed + 2).ranges()


@dataclass
class FaultSweep:
    """The inputs every fault experiment shares, keyword-only after its own.

    A subclass declares ``n_peers`` and redeclares a field here only where
    its default differs.
    """

    _: KW_ONLY
    latency_low_ms: float = 10.0
    latency_high_ms: float = 100.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    domain: Domain = field(default_factory=lambda: PAPER_DOMAIN)
    seed: int = 2003

    @classmethod
    def paper(cls) -> "FaultSweep":
        return cls()

    def start(self, stream: str, config: dict | None = None, **inputs) -> ScenarioRun:
        """Start one cell's :class:`Scenario` over this sweep's ring,
        latency band and retry policy; ``config`` adds
        :class:`SystemConfig` fields and ``inputs`` the scenario's own."""
        return Scenario(
            SystemConfig(
                n_peers=self.n_peers, domain=self.domain, seed=self.seed, **(config or {})
            ),
            stream=stream,
            latency_ms=(self.latency_low_ms, self.latency_high_ms),
            **asdict(self.policy),
            **inputs,
        ).start()


@dataclass
class CellTable(Generic[Cell]):
    """A sweep's measured cells in run order, each found by its setting.

    A subclass names the table's ``title``; each cell renders its row as
    ``{header: value}`` (``as_row()``).
    """

    #: Sweep setting -> its cell, in run order.
    by_key: dict[tuple, Cell]

    @property
    def cells(self) -> list[Cell]:
        return list(self.by_key.values())

    def cell(self, *key) -> Cell:
        """The measured cell for one sweep setting."""
        return self.by_key[key]

    def report(self) -> str:
        rows = [cell.as_row() for cell in self.cells]
        headers = list(rows[0]) if rows else []
        return format_table(headers, [list(row.values()) for row in rows], title=self.title)
