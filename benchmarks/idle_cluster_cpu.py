"""What an idle live ring burns: CPU of the peer processes with no client.

    python benchmarks/idle_cluster_cpu.py [--peers 8] [--entries 5000] [--seconds 4]

Starts a ``LocalCluster`` with the default SWIM and repair intervals
(1 s each), stores disjoint ranges through one client until the ring
holds ``--entries`` copies (``l`` identifiers x ``r`` replicas a query),
waits for every key to reach its ``r`` copies, closes the client, lets
the ring sit for a settling period and then sums the peers' on-CPU time
from ``/proc/<pid>/schedstat`` over ``--seconds``.  Prints ms of CPU per
second of wall time, summed over the peers.  Not a pytest bench (and not
part of ``benchmarks/e2e``): it measures background cost, which no query
workload sees except as stolen cycles.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import SystemConfig  # noqa: E402
from repro.ranges.interval import IntRange  # noqa: E402
from repro.rpc import drills  # noqa: E402
from repro.rpc.cluster import LocalCluster  # noqa: E402


def on_cpu_ns(cluster: LocalCluster) -> int:
    return sum(
        int(Path(f"/proc/{process.pid}/schedstat").read_text().split()[0])
        for process in cluster.processes.values()
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=8)
    parser.add_argument("--entries", type=int, default=5000)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()
    config = SystemConfig(n_peers=args.peers, replicas=3)
    # Disjoint ranges: every query misses and stores l identifiers at r
    # peers each, so --entries is the copies the ring ends up holding.
    queries = -(-args.entries // (config.l * config.replicas))
    with LocalCluster(args.peers, config) as cluster:
        with cluster.client(policies=False, timeout_ms=30_000.0) as client:
            for index in range(queries):
                client.query(IntRange(3 * index, 3 * index + 1))
            drills.wait_for(
                lambda: drills.healed(cluster, client), "full replication", 120.0
            )
            held = sum(len(client.entries_of(a)) for a in client.members)
        time.sleep(3.0)  # connections closed, last repair pushes digested
        before, started = on_cpu_ns(cluster), time.monotonic()
        time.sleep(args.seconds)
        burnt_ms = (on_cpu_ns(cluster) - before) / 1e6
        elapsed = time.monotonic() - started
    print(
        f"{args.peers} idle peers holding {held} entries: "
        f"{burnt_ms / elapsed:.1f} ms CPU per second "
        f"({burnt_ms:.0f} ms over {elapsed:.1f} s)"
    )


if __name__ == "__main__":
    main()
