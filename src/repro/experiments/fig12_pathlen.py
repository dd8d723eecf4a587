"""Figure 12: lookup path lengths in the overlay.

Section 5.3: with 5 x 10^4 stored partitions and 100..5000 peers, route
lookups for partition identifiers from random origin peers and measure the
hop count.  Panel (a) sweeps the number of peers (mean + 1st/99th
percentiles); panel (b) is the hop-count PDF in a 1000-node system.  The
paper's summary: "the mean path lengths are of the order (1/2) log2 N".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.lsh import LSHIdentifierScheme, family_for_domain
from repro.chord.hashing import rehash_for_placement
from repro.chord.ring import ChordRing
from repro.experiments.fig11_load import unique_uniform_ranges
from repro.metrics.report import format_series, format_table
from repro.ranges.domain import Domain
from repro.util.rng import derive_rng
from repro.util.stats import DiscretePdf, SummaryStats, summarize

__all__ = ["PathLengthExperiment", "PathLengthOutcome"]

PAPER_PEER_COUNTS = (100, 250, 500, 1000, 2500, 5000)
PDF_PEERS = 1000


@dataclass
class PathLengthOutcome:
    """Both panels of Figure 12."""

    by_peers: list[tuple[int, SummaryStats]]
    pdf: DiscretePdf
    pdf_peers: int

    def mean_hops(self, n_peers: int) -> float:
        """Mean path length at one swept peer count."""
        for n, stats in self.by_peers:
            if n == n_peers:
                return stats.mean
        raise KeyError(f"no sweep point at {n_peers} peers")

    def report(self) -> str:
        rows = [
            [n, f"{s.p01:.0f}", f"{s.mean:.2f}", f"{s.p99:.0f}",
             f"{0.5 * np.log2(n):.2f}"]
            for n, s in self.by_peers
        ]
        table_a = format_table(
            ["peers", "p1", "mean", "p99", "(1/2)log2N"],
            rows,
            title="Figure 12a — path length vs number of peers",
        )
        pdf_points = [
            (float(h), 100.0 * p) for h, p in self.pdf.probabilities().items()
        ]
        table_b = format_series(
            "hops",
            "% of lookups",
            pdf_points,
            title=f"Figure 12b — path length PDF, {self.pdf_peers} peers "
            f"(mean {self.pdf.mean():.2f})",
        )
        return f"{table_a}\n\n{table_b}"


@dataclass
class PathLengthExperiment:
    """Measure lookup hop counts across ring sizes."""

    peer_counts: tuple[int, ...] = PAPER_PEER_COUNTS
    pdf_peers: int = PDF_PEERS
    lookups_per_point: int = 20_000
    unique_partitions: int = 10_000
    family: str = "approx-min-wise"
    l: int = 5
    k: int = 20
    seed: int = 2003
    domain: Domain = field(default_factory=lambda: Domain("value", 0, 1000))
    placement: str = "rehash"

    @classmethod
    def paper(cls) -> "PathLengthExperiment":
        return cls()

    @classmethod
    def quick(cls) -> "PathLengthExperiment":
        return cls(
            peer_counts=(50, 100, 200),
            pdf_peers=100,
            lookups_per_point=1500,
            unique_partitions=500,
        )

    def _partition_identifiers(self) -> np.ndarray:
        scheme = LSHIdentifierScheme.from_family(
            family_for_domain(self.family, self.domain),
            l=self.l,
            k=self.k,
            seed=self.seed,
        )
        ranges = unique_uniform_ranges(
            self.unique_partitions, self.domain, self.seed
        )
        rows = [scheme.identifiers(r) for r in ranges]
        flat = np.asarray(rows, dtype=np.uint64).reshape(-1)
        if self.placement == "rehash":
            flat = np.asarray(
                [rehash_for_placement(int(i)) for i in flat], dtype=np.uint64
            )
        return flat

    def _hops_for_ring(
        self, n_peers: int, identifiers: np.ndarray, rng: np.random.Generator
    ) -> list[int]:
        ring = ChordRing(m=32)
        ring.add_nodes(n_peers)
        ring.build()
        node_ids = ring.node_ids
        count = min(self.lookups_per_point, len(identifiers))
        chosen = rng.choice(len(identifiers), size=count, replace=False)
        hops: list[int] = []
        for key_index in chosen:
            origin = node_ids[int(rng.integers(len(node_ids)))]
            result = ring.lookup(int(identifiers[key_index]), start_id=origin)
            hops.append(result.hops)
        return hops

    def run(self) -> PathLengthOutcome:
        identifiers = self._partition_identifiers()
        rng = derive_rng(self.seed, "pathlen/origins")
        by_peers: list[tuple[int, SummaryStats]] = []
        pdf = DiscretePdf()
        for n_peers in self.peer_counts:
            hops = self._hops_for_ring(n_peers, identifiers, rng)
            by_peers.append((n_peers, summarize(hops)))
            if n_peers == self.pdf_peers:
                for h in hops:
                    pdf.add(h)
        if pdf.total == 0:
            # The PDF ring size was not part of the sweep: measure it.
            for h in self._hops_for_ring(self.pdf_peers, identifiers, rng):
                pdf.add(h)
        return PathLengthOutcome(
            by_peers=by_peers, pdf=pdf, pdf_peers=self.pdf_peers
        )
