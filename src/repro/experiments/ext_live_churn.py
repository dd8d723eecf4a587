"""Extension — live churn: self-healing under kill, pause and partition.

Every other experiment in this package drives a simulated transport; this
one drives *real processes*.  It spawns a :class:`~repro.rpc.cluster.
LocalCluster` of ``repro serve`` peers with the SWIM failure detector and
server-side anti-entropy repair enabled, then plays the three fault waves
of the paper's fault model plus the classic production failure it leaves
out:

- **kill** — SIGKILL one replica-holding peer; the ring must detect the
  death, evict the peer from every mirror and re-replicate its entries
  to ``r`` live copies *with the client completely idle*;
- **pause** — SIGSTOP one peer just long enough to be *suspected*, then
  SIGCONT; the ring must not over-react: the thawed peer refutes,
  rejoins every mirror and keeps every entry it held;
- **partition** — block a two-peer minority from the rest (two-sided);
  both sides evict each other, and after the heal membership
  reconverges to the full ring.

The waves, and what each one's detect / repair clock measures, are
:func:`repro.rpc.drills.kill_wave`, :func:`~repro.rpc.drills.pause_wave`
and :func:`~repro.rpc.drills.partition_wave` — the code ``repro cluster``
and the process tests run too.

After every wave the same tile workload is re-queried and recall is
compared against the warm baseline — the paper's quality metric, now
measured through real sockets against a ring that healed itself.

The measured numbers land in two places: this outcome's table (wall-clock
observations by the harness) and the peers' own metric registries
(``swim.detect_ms`` / ``repair.heal_ms`` histograms, ``swim.*`` and
``repair.push.*`` counters), which the harness snapshots over the
``metrics`` RPC — so the report cross-checks what the cluster *says*
happened against what the harness *saw* happen.

This experiment spawns OS processes and sleeps on real clocks, so it is
deliberately **not** part of ``repro experiments`` / ``runall``; run it
via ``benchmarks/bench_ext_live_churn.py`` or the CLI chaos drill
(``repro cluster --chaos``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.metrics.report import format_table
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.rpc import drills
from repro.rpc.cluster import LocalCluster
from repro.rpc.drills import LiveChurnWave

__all__ = ["LiveChurnExperiment", "LiveChurnOutcome", "LiveChurnWave"]

PAPER_DOMAIN = Domain("value", 0, 1000)


def _ms(value: float | None) -> str:
    return f"{value:.0f}" if value is not None else "-"


@dataclass
class LiveChurnOutcome:
    """All waves of one live-churn run."""

    waves: list[LiveChurnWave]
    n_peers: int
    replicas: int
    swim_interval_ms: float
    #: ``swim.detect_ms`` histogram stats aggregated over all peers:
    #: (count, mean_ms, max_ms) — the cluster's own detection latency.
    swim_detect_stats: tuple[int, float, float] = (0, 0.0, 0.0)
    #: ``repair.heal_ms`` aggregated the same way.
    repair_heal_stats: tuple[int, float, float] = (0, 0.0, 0.0)

    def wave(self, name: str) -> LiveChurnWave:
        for wave in self.waves:
            if wave.wave == name:
                return wave
        raise KeyError(name)

    def report(self) -> str:
        table = format_table(
            [
                "wave", "recall", "detect ms", "repair ms",
                "suspected", "evicted", "repaired", "members",
            ],
            [
                [
                    wave.wave, f"{wave.recall:.3f}",
                    _ms(wave.detect_ms), _ms(wave.repair_ms),
                    str(wave.suspected), str(wave.evicted),
                    str(wave.repair_copies), str(wave.members),
                ]
                for wave in self.waves
            ],
            title=(
                "Extension — live churn: self-healing socket cluster "
                f"({self.n_peers} peers, r={self.replicas}, swim tick "
                f"{self.swim_interval_ms:g} ms)"
            ),
        )
        d_count, d_mean, d_max = self.swim_detect_stats
        h_count, h_mean, h_max = self.repair_heal_stats
        tail = (
            f"peer-reported: swim.detect_ms n={d_count} "
            f"mean={d_mean:.0f} max={d_max:.0f}; repair.heal_ms "
            f"n={h_count} mean={h_mean:.0f} max={h_max:.0f}"
        )
        return f"{table}\n{tail}"


@dataclass
class LiveChurnExperiment:
    """Warm a live cluster, then kill / pause / partition it.

    The workload stores one partition per disjoint domain tile and
    re-queries the tiles (jittered by one unit) after every wave, so
    recall measures whether stored data stayed *reachable* through the
    churn, never whether it was re-inserted.
    """

    n_peers: int = 8
    replicas: int = 3
    tile_width: int = 50
    seed: int = 7
    swim_interval_ms: float = 300.0
    suspect_timeout_ms: float = 2_000.0
    repair_interval_ms: float = 400.0
    partition_size: int = 2
    partition_hold_s: float = 6.0
    wait_timeout_s: float = 60.0
    domain: Domain = field(default_factory=lambda: PAPER_DOMAIN)

    @classmethod
    def quick(cls) -> "LiveChurnExperiment":
        return cls()

    @classmethod
    def paper(cls) -> "LiveChurnExperiment":
        return cls(
            n_peers=12,
            tile_width=30,
            swim_interval_ms=500.0,
            suspect_timeout_ms=2_000.0,
            partition_hold_s=8.0,
            wait_timeout_s=120.0,
        )

    def _tiles(self) -> list[IntRange]:
        return [
            IntRange(low, min(low + self.tile_width - 1, self.domain.high))
            for low in range(
                self.domain.low, self.domain.high + 1, self.tile_width
            )
        ]

    def run(self) -> LiveChurnOutcome:
        config = SystemConfig(
            n_peers=self.n_peers,
            seed=self.seed,
            replicas=self.replicas,
            domain=self.domain,
        )
        tiles = self._tiles()
        # Re-query each tile shrunk by one unit, so the recall passes
        # exercise the approximate-containment path; a single-point tile
        # (the domain remainder) is queried as-is.
        probes = [
            IntRange(min(tile.start + 1, tile.end), tile.end) for tile in tiles
        ]
        timeout_s = self.wait_timeout_s
        with LocalCluster(
            self.n_peers,
            config,
            swim_interval_ms=self.swim_interval_ms,
            suspect_timeout_ms=self.suspect_timeout_ms,
            repair_interval_ms=self.repair_interval_ms,
        ) as cluster, cluster.client() as client:
            # Warm: store every tile, then run one throwaway recall pass
            # so the probe forms are stored too (cold store-on-miss),
            # then measure the baseline — which must now hit everything.
            for tile in tiles:
                client.query(tile)
            drills.mean_recall(client, probes)
            drills.wait_for(
                lambda: drills.healed(cluster, client),
                "warm replication",
                timeout_s,
            )
            waves = [
                LiveChurnWave(
                    "warm", drills.mean_recall(client, probes), None, None,
                    suspected=0, evicted=0, repair_copies=0,
                    members=len(client.members),
                )
            ]
            # A replica holder of the first probe is a fine victim for
            # both process faults: it holds entries, and it is never the
            # client's bootstrap peer.  After the kill the ring has
            # changed, so the pause wave picks afresh.
            victim = drills.replica_victim(client, probes[0])
            waves.append(
                drills.kill_wave(cluster, client, probes, victim, timeout_s)
            )
            target = drills.replica_victim(client, probes[0])
            waves.append(
                drills.pause_wave(cluster, client, probes, target, timeout_s)
            )
            if self.partition_size > 0:
                waves.append(
                    drills.partition_wave(
                        cluster, client, probes, self.partition_size,
                        self.partition_hold_s, timeout_s,
                    )
                )
            detect = drills.histogram_summary(cluster, "swim.detect_ms")
            heal = drills.histogram_summary(cluster, "repair.heal_ms")
        return LiveChurnOutcome(
            waves=waves,
            n_peers=self.n_peers,
            replicas=self.replicas,
            swim_interval_ms=self.swim_interval_ms,
            swim_detect_stats=(detect["count"], detect["mean"], detect["max"]),
            repair_heal_stats=(heal["count"], heal["mean"], heal["max"]),
        )
