"""Figure 11: load balance — partitions stored per node.

Setup from Section 5.3: the system stores 5 x 10^4 partitions — 10^4
unique ranges, "each stored with five different identifiers computed by
five different sets of hash functions" — and the figure reports the mean
and the 1st/99th percentiles of partitions per node, (a) sweeping the
number of peers with placements fixed, and (b) sweeping stored partitions
in a 1000-node system.  The placement ablation sets panel (a) under raw
LSH identifiers used directly as ring positions (what the paper's text
literally says) beside SHA-1 rehashed placement.

Placement only depends on identifiers and ring membership, so this
experiment computes ownership directly (vectorized successor-of), which is
exactly what the paper's modified Chord simulator measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.lsh import LSHIdentifierScheme, family_for_domain
from repro.chord.hashing import rehash_for_placement
from repro.chord.ring import ChordRing
from repro.metrics.report import format_table
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng
from repro.util.stats import SummaryStats, summarize

__all__ = ["LoadBalanceExperiment", "LoadOutcome", "PlacementAblationOutcome"]

PAPER_PEER_COUNTS = (100, 250, 500, 1000, 2500, 5000)
PAPER_UNIQUE_PARTITIONS = 10_000
PAPER_PARTITION_SWEEP = (35_000, 70_000, 105_000, 140_000, 180_000)
PAPER_SWEEP_PEERS = 1000


def unique_uniform_ranges(
    count: int, domain: Domain, seed: int
) -> list[IntRange]:
    """``count`` distinct uniform ranges (the paper stores unique ranges)."""
    rng = derive_rng(seed, "load/unique-ranges")
    seen: set[IntRange] = set()
    out: list[IntRange] = []
    while len(out) < count:
        a = int(rng.integers(domain.low, domain.high + 1))
        b = int(rng.integers(domain.low, domain.high + 1))
        r = IntRange(min(a, b), max(a, b))
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def placements_per_node(ring: ChordRing, identifiers: np.ndarray) -> np.ndarray:
    """Partitions owned by each node, via vectorized successor mapping."""
    node_ids = np.asarray(ring.node_ids, dtype=np.uint64)
    positions = np.searchsorted(node_ids, identifiers.astype(np.uint64))
    positions[positions == len(node_ids)] = 0  # wrap to the lowest node
    return np.bincount(positions, minlength=len(node_ids))


@dataclass
class LoadOutcome:
    """Both panels of Figure 11."""

    by_peers: list[tuple[int, SummaryStats]]
    by_partitions: list[tuple[int, SummaryStats]]
    sweep_peers: int

    def report(self) -> str:
        rows_a = [
            [n, f"{s.p01:.0f}", f"{s.mean:.1f}", f"{s.p99:.0f}"]
            for n, s in self.by_peers
        ]
        total_fixed = int(
            round(self.by_peers[0][1].mean * self.by_peers[0][1].count)
        )
        table_a = format_table(
            ["peers", "p1", "mean", "p99"],
            rows_a,
            title=(
                f"Figure 11a — partitions per node, {total_fixed} placements"
            ),
        )
        rows_b = [
            [total, f"{s.p01:.0f}", f"{s.mean:.1f}", f"{s.p99:.0f}"]
            for total, s in self.by_partitions
        ]
        table_b = format_table(
            ["partitions", "p1", "mean", "p99"],
            rows_b,
            title=f"Figure 11b — partitions per node in a {self.sweep_peers}-node system",
        )
        return f"{table_a}\n\n{table_b}"


@dataclass
class PlacementAblationOutcome:
    """Figure 11 under direct and under rehashed placement."""

    direct: LoadOutcome
    rehash: LoadOutcome

    def report(self) -> str:
        rows = []
        for (n, d_stats), (_, r_stats) in zip(self.direct.by_peers, self.rehash.by_peers):
            rows.append(
                [
                    n,
                    f"{d_stats.mean:.1f}",
                    f"{d_stats.maximum:.0f}",
                    f"{r_stats.maximum:.0f}",
                    f"{d_stats.p50:.0f}",
                    f"{r_stats.p50:.0f}",
                ]
            )
        return format_table(
            ["peers", "mean", "max direct", "max rehash", "median direct", "median rehash"],
            rows,
            title=(
                "Placement ablation — raw LSH identifiers vs SHA-1 rehash\n"
                "(min-hash identifiers are small, so direct placement piles "
                "them onto the low arc: one peer's max load explodes while the "
                "median peer holds nothing)"
            ),
        )


@dataclass
class LoadBalanceExperiment:
    """Compute both Figure 11 panels."""

    peer_counts: tuple[int, ...] = PAPER_PEER_COUNTS
    unique_partitions: int = PAPER_UNIQUE_PARTITIONS
    partition_sweep: tuple[int, ...] = PAPER_PARTITION_SWEEP
    sweep_peers: int = PAPER_SWEEP_PEERS
    family: str = "approx-min-wise"
    l: int = 5
    k: int = 20
    seed: int = 2003
    domain: Domain = field(default_factory=lambda: Domain("value", 0, 1000))
    #: "rehash" (default) places buckets via SHA-1 of the identifier, the
    #: standard DHT discipline that reproduces the paper's reported balance;
    #: "direct" uses raw LSH identifiers and exhibits severe concentration
    #: (see :meth:`run_ablation`).
    placement: str = "rehash"

    @classmethod
    def paper(cls) -> "LoadBalanceExperiment":
        return cls()

    @classmethod
    def quick(cls) -> "LoadBalanceExperiment":
        return cls(
            peer_counts=(50, 100, 200),
            unique_partitions=800,
            partition_sweep=(2_000, 4_000, 8_000),
            sweep_peers=100,
        )

    def _identifier_matrix(self, n_unique: int) -> np.ndarray:
        """Identifiers for the first ``n_unique`` unique ranges, flattened
        (l placements per range)."""
        scheme = LSHIdentifierScheme.from_family(
            family_for_domain(self.family, self.domain),
            l=self.l,
            k=self.k,
            seed=self.seed,
        )
        ranges = unique_uniform_ranges(n_unique, self.domain, self.seed)
        rows = [scheme.identifiers(r) for r in ranges]
        flat = np.asarray(rows, dtype=np.uint64).reshape(-1)
        if self.placement == "rehash":
            flat = np.asarray(
                [rehash_for_placement(int(i)) for i in flat], dtype=np.uint64
            )
        return flat

    def run(self) -> LoadOutcome:
        """Both sweeps; ring membership is rebuilt per point, placements
        are computed once per identifier set."""
        max_unique = max(
            self.unique_partitions,
            max(self.partition_sweep) // self.l,
        )
        all_identifiers = self._identifier_matrix(max_unique)

        fixed = all_identifiers[: self.unique_partitions * self.l]
        by_peers: list[tuple[int, SummaryStats]] = []
        for n_peers in self.peer_counts:
            ring = ChordRing(m=32)
            ring.add_nodes(n_peers)
            loads = placements_per_node(ring, fixed)
            by_peers.append((n_peers, summarize(loads)))

        ring = ChordRing(m=32)
        ring.add_nodes(self.sweep_peers)
        by_partitions: list[tuple[int, SummaryStats]] = []
        for total in self.partition_sweep:
            subset = all_identifiers[:total]
            loads = placements_per_node(ring, subset)
            by_partitions.append((total, summarize(loads)))
        return LoadOutcome(
            by_peers=by_peers,
            by_partitions=by_partitions,
            sweep_peers=self.sweep_peers,
        )

    def run_ablation(self) -> PlacementAblationOutcome:
        """This experiment under each placement."""
        return PlacementAblationOutcome(
            direct=replace(self, placement="direct").run(),
            rehash=replace(self, placement="rehash").run(),
        )
