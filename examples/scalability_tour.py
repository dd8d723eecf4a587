"""A tour of the overlay substrate: ring structure, routing, load.

Shows the Chord machinery the system runs on: finger tables and O(log N)
lookups and the load distribution of cached partitions — the quantities
behind Figures 11 and 12.

Run:  python examples/scalability_tour.py
"""

import math

from repro import ChordRing, IntRange, RangeSelectionSystem, SystemConfig
from repro.util.rng import derive_rng
from repro.util.stats import summarize
from repro.workloads import UniformRangeWorkload


def routing_demo() -> None:
    ring = ChordRing(m=32)
    ring.add_nodes(1000)
    ring.build()
    rng = derive_rng(0, "example/lookups")
    node_ids = ring.node_ids
    hops = []
    for _ in range(3000):
        key = int(rng.integers(0, 2**32))
        origin = node_ids[int(rng.integers(len(node_ids)))]
        hops.append(ring.lookup(key, start_id=origin).hops)
    stats = summarize(hops)
    print(
        f"1000-node ring: mean lookup {stats.mean:.2f} hops "
        f"(p1 {stats.p01:.0f}, p99 {stats.p99:.0f}); "
        f"(1/2)log2(N) = {0.5 * math.log2(1000):.2f}"
    )


def load_demo() -> None:
    system = RangeSelectionSystem(SystemConfig(n_peers=500, seed=13))
    workload = UniformRangeWorkload(system.config.domain, count=4000, seed=5)
    for query in workload:
        system.query(query)
    loads = system.load_distribution()
    stats = summarize(loads)
    print(
        f"500 peers, {system.total_placements()} placements: "
        f"mean {stats.mean:.1f} partitions/peer "
        f"(p1 {stats.p01:.0f}, p99 {stats.p99:.0f})"
    )


def main() -> None:
    routing_demo()
    load_demo()

    # End-to-end: an identical repeat query must find its cached partition
    # exactly (equal ranges hash to equal identifiers under every family).
    system = RangeSelectionSystem(SystemConfig(n_peers=100, seed=1))
    system.query(IntRange(100, 200))
    result = system.query(IntRange(100, 200))
    print(
        f"sanity repeat of [100,200]: exact={result.exact}, "
        f"recall {result.recall:.2f}"
    )


if __name__ == "__main__":
    main()
