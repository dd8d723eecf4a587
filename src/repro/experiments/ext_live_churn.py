"""Extension — live churn: self-healing under kill, pause and partition.

Every other experiment in this package drives a simulated transport; this
one drives *real processes*.  It spawns a :class:`~repro.rpc.cluster.
LocalCluster` of ``repro serve`` peers with the SWIM failure detector and
server-side anti-entropy repair enabled, then plays the three fault waves
of the paper's fault model plus the classic production failure it leaves
out:

- **kill** — SIGKILL one replica-holding peer.  The ring must detect the
  death (direct pings fail, ping-req proxies fail, suspicion ages out),
  evict the peer from every mirror, and re-replicate its entries to ``r``
  live copies — *with the client completely idle*.  Measures wall-clock
  time-to-detection (kill → evicted from every live mirror) and
  time-to-repair (kill → every entry back at full replication).
- **pause** — SIGSTOP one peer for long enough to be *suspected* but not
  long enough to be evicted, then SIGCONT.  The ring must not over-react:
  the thawed peer refutes the suspicion with a higher incarnation,
  rejoins every mirror, and keeps every entry it held.
- **partition** — block a two-peer minority from the rest (two-sided, at
  the connection-filter level).  Both sides evict each other; after the
  heal, the resurrection probes rediscover the minority, the minority
  refutes its death, and membership reconverges to the full ring.

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

import time
from dataclasses import dataclass, field

from repro.core.config import SystemConfig
from repro.errors import ReproError
from repro.metrics.report import format_table
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.rpc.cluster import LocalCluster

__all__ = ["LiveChurnExperiment", "LiveChurnOutcome", "LiveChurnWave"]

PAPER_DOMAIN = Domain("value", 0, 1000)


@dataclass(frozen=True)
class LiveChurnWave:
    """Measured outcome of one fault wave against the live cluster."""

    wave: str
    recall: float
    detect_ms: float | None
    repair_ms: float | None
    failovers: int
    suspected: int
    evicted: int
    repair_copies: int
    members: int

    def as_row(self) -> list[str]:
        def ms(value: float | None) -> str:
            return f"{value:.0f}" if value is not None else "-"

        return [
            self.wave,
            f"{self.recall:.3f}",
            ms(self.detect_ms),
            ms(self.repair_ms),
            str(self.failovers),
            str(self.suspected),
            str(self.evicted),
            str(self.repair_copies),
            str(self.members),
        ]


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
                "wave",
                "recall",
                "detect ms",
                "repair ms",
                "failovers",
                "suspected",
                "evicted",
                "repaired",
                "members",
            ],
            [wave.as_row() for wave in self.waves],
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
    #: How long the pause wave holds SIGSTOP: long enough for a full
    #: probe round to fail (direct ping + indirect ping-req, ~1 s at the
    #: default tick) so the suspicion lands, short enough that the thawed
    #: peer refutes well before the suspicion ages into an eviction.
    pause_hold_s: float = 1.5
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

    # -- plumbing --------------------------------------------------------

    def _tiles(self) -> list[IntRange]:
        return [
            IntRange(low, min(low + self.tile_width - 1, self.domain.high))
            for low in range(
                self.domain.low, self.domain.high + 1, self.tile_width
            )
        ]

    def _wait_for(self, predicate, what: str) -> float:
        """Poll ``predicate`` until true; returns elapsed ms."""
        started = time.monotonic()
        deadline = started + self.wait_timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return (time.monotonic() - started) * 1000.0
            time.sleep(0.1)
        raise ReproError(
            f"live-churn: timed out after {self.wait_timeout_s:g}s "
            f"waiting for {what}"
        )

    @staticmethod
    def _live(cluster: LocalCluster) -> set[str]:
        return {
            address
            for address in cluster.endpoints
            if cluster.alive(address) and address not in cluster.paused
        }

    @staticmethod
    def _hello_members(client, cluster, address: str) -> set[str] | None:
        import asyncio

        from repro.rpc import wire

        host, port = cluster.endpoints[address]
        try:
            hello = asyncio.run(
                wire.call(host, port, "hello", timeout_ms=2_000.0)
            )
        except ReproError:
            return None
        return set(hello["members"])

    def _converged(self, client, cluster) -> bool:
        """Every live peer's mirror equals the live set."""
        live = self._live(cluster)
        for address in live:
            members = self._hello_members(client, cluster, address)
            if members != live:
                return False
        return True

    @staticmethod
    def _replication_met(client) -> bool:
        """Every stored key has ``min(r, members)`` copies on the ring."""
        try:
            client.refresh()
            return client.under_replicated() == 0
        except ReproError:
            return False

    def _counter_total(self, client, cluster, name: str) -> int:
        """Sum one counter over every live peer's metrics snapshot."""
        total = 0
        for address in self._live(cluster):
            try:
                snapshot = client.call(address, "metrics")
            except ReproError:
                continue
            for metric in snapshot.get("metrics", []):
                if metric.get("name") != name:
                    continue
                for series in metric.get("series", []):
                    total += int(series.get("value", 0))
        return total

    def _histogram_stats(
        self, client, cluster, name: str
    ) -> tuple[int, float, float]:
        """(count, mean, max) of one histogram over every live peer."""
        count, total, peak = 0, 0.0, 0.0
        for address in self._live(cluster):
            try:
                snapshot = client.call(address, "metrics")
            except ReproError:
                continue
            for metric in snapshot.get("metrics", []):
                if metric.get("name") != name:
                    continue
                for series in metric.get("series", []):
                    count += int(series.get("count", 0))
                    total += float(series.get("sum", 0.0))
                    peak = max(peak, float(series.get("max", 0.0)))
        return (count, total / count if count else 0.0, peak)

    def _recall(self, client, tiles: list[IntRange]) -> float:
        recalls = []
        for tile in tiles:
            # Shrink the query inside the stored tile so it exercises the
            # approximate-containment path; a single-point tile (the
            # domain remainder) is queried as-is.
            jittered = IntRange(min(tile.start + 1, tile.end), tile.end)
            recalls.append(client.query(jittered).recall)
        return sum(recalls) / max(1, len(recalls))

    # -- the run ---------------------------------------------------------

    def run(self) -> LiveChurnOutcome:
        config = SystemConfig(
            n_peers=self.n_peers,
            seed=self.seed,
            replicas=self.replicas,
            domain=self.domain,
        )
        tiles = self._tiles()
        waves: list[LiveChurnWave] = []
        with LocalCluster(
            self.n_peers,
            config,
            swim_interval_ms=self.swim_interval_ms,
            suspect_timeout_ms=self.suspect_timeout_ms,
            repair_interval_ms=self.repair_interval_ms,
        ) as cluster:
            with cluster.client() as client:
                bootstrap = next(iter(cluster.endpoints))
                # Warm: store every tile, then run one throwaway recall
                # pass so the jittered query forms are stored too (cold
                # store-on-miss), then measure the baseline — which must
                # now hit everything.
                for tile in tiles:
                    client.query(tile)
                self._recall(client, tiles)
                self._wait_for(
                    lambda: self._replication_met(client),
                    "warm replication",
                )
                warm = self._recall(client, tiles)
                waves.append(
                    LiveChurnWave(
                        wave="warm",
                        recall=warm,
                        detect_ms=None,
                        repair_ms=None,
                        failovers=0,
                        suspected=0,
                        evicted=0,
                        repair_copies=0,
                        members=len(client.members),
                    )
                )

                waves.append(
                    self._kill_wave(cluster, client, tiles, bootstrap)
                )
                waves.append(
                    self._pause_wave(cluster, client, tiles, bootstrap)
                )
                if self.partition_size > 0:
                    waves.append(
                        self._partition_wave(cluster, client, tiles, bootstrap)
                    )

                detect_stats = self._histogram_stats(
                    client, cluster, "swim.detect_ms"
                )
                heal_stats = self._histogram_stats(
                    client, cluster, "repair.heal_ms"
                )
        return LiveChurnOutcome(
            waves=waves,
            n_peers=self.n_peers,
            replicas=self.replicas,
            swim_interval_ms=self.swim_interval_ms,
            swim_detect_stats=detect_stats,
            repair_heal_stats=heal_stats,
        )

    def _kill_wave(
        self, cluster, client, tiles, bootstrap: str
    ) -> LiveChurnWave:
        # Any entry-holding non-bootstrap peer is a fine victim: with
        # r >= 2 its death must be absorbed by failover, and its entries
        # must come back to full replication without us asking.
        victim = None
        for address in sorted(self._live(cluster) - {bootstrap}):
            if client.entries_of(address):
                victim = address
                break
        if victim is None:
            raise ReproError("live-churn: no entry-holding victim to kill")
        suspected_before = self._counter_total(
            client, cluster, "swim.suspected"
        )
        cluster.kill(victim)
        detect_ms = self._wait_for(
            lambda: self._converged(client, cluster),
            f"every mirror to evict {victim}",
        )
        repair_ms = detect_ms + self._wait_for(
            lambda: self._replication_met(client),
            "post-kill re-replication",
        )
        client.refresh()
        failovers_before = client.system.counters.failovers
        recall = self._recall(client, tiles)
        return LiveChurnWave(
            wave="kill",
            recall=recall,
            detect_ms=detect_ms,
            repair_ms=repair_ms,
            failovers=int(
                client.system.counters.failovers - failovers_before
            ),
            suspected=self._counter_total(client, cluster, "swim.suspected")
            - suspected_before,
            evicted=self._counter_total(client, cluster, "swim.dead"),
            repair_copies=self._counter_total(
                client, cluster, "repair.push.copies"
            ),
            members=len(client.members),
        )

    def _pause_wave(
        self, cluster, client, tiles, bootstrap: str
    ) -> LiveChurnWave:
        target = sorted(self._live(cluster) - {bootstrap})[0]
        held_before = len(client.entries_of(target))
        suspected_before = self._counter_total(
            client, cluster, "swim.suspected"
        )
        cluster.pause(target)
        time.sleep(self.pause_hold_s)
        cluster.resume(target)
        detect_ms = self._wait_for(
            lambda: self._converged(client, cluster),
            f"{target} to rejoin every mirror",
        )
        held_after = len(client.entries_of(target))
        if held_after < held_before:
            raise ReproError(
                f"live-churn: {target} lost entries over the pause "
                f"({held_before} -> {held_after})"
            )
        client.refresh()
        recall = self._recall(client, tiles)
        return LiveChurnWave(
            wave="pause",
            recall=recall,
            detect_ms=detect_ms,
            repair_ms=None,
            failovers=0,
            suspected=self._counter_total(client, cluster, "swim.suspected")
            - suspected_before,
            evicted=0,
            repair_copies=0,
            members=len(client.members),
        )

    def _partition_wave(
        self, cluster, client, tiles, bootstrap: str
    ) -> LiveChurnWave:
        live = sorted(self._live(cluster))
        minority = [a for a in live if a != bootstrap][: self.partition_size]
        majority = [a for a in live if a not in minority]
        cluster.partition(minority, majority)

        def split_detected() -> bool:
            seen = self._hello_members(client, cluster, bootstrap)
            return seen is not None and seen == set(majority)

        detect_ms = self._wait_for(
            lambda: split_detected(), "the majority side to evict the minority"
        )
        time.sleep(max(0.0, self.partition_hold_s - detect_ms / 1000.0))
        cluster.heal()
        repair_ms = self._wait_for(
            lambda: self._converged(client, cluster)
            and self._replication_met(client),
            "post-heal reconvergence",
        )
        client.refresh()
        recall = self._recall(client, tiles)
        return LiveChurnWave(
            wave="partition",
            recall=recall,
            detect_ms=detect_ms,
            repair_ms=repair_ms,
            failovers=0,
            suspected=0,
            evicted=self._counter_total(client, cluster, "swim.dead"),
            repair_copies=self._counter_total(
                client, cluster, "repair.push.copies"
            ),
            members=len(client.members),
        )
