"""A live cluster over real sockets: join, query, leave, kill.

Spawns five peer processes on localhost (``python -m repro serve`` under
the hood), each owning its partitions and answering lookup/store RPCs
over the length-prefixed JSON wire protocol. A client then walks the
whole node lifecycle:

- a sixth peer **joins** and receives data via rebalancing;
- queries run over real TCP connections, l lookup chains concurrently;
- one peer **leaves gracefully**, handing its entries off first;
- another is **killed abruptly** (SIGKILL) — recall survives through
  replica-chain failover, and the ring heals itself: SWIM evicts the dead
  peer and the servers' own repair rounds restore r copies.

Run:  python examples/live_cluster.py
"""

import time

from repro import IntRange, SystemConfig
from repro.errors import ReproError
from repro.rpc.cluster import LocalCluster

QUERIES = [IntRange(100, 200), IntRange(400, 550), IntRange(700, 820)]


def mean_recall(client) -> float:
    results = [client.query(query) for query in QUERIES]
    return sum(result.recall for result in results) / len(results)


def main() -> None:
    config = SystemConfig(n_peers=5, replicas=3, seed=7)
    with LocalCluster(5, config) as cluster:
        print(f"cluster: {len(cluster.endpoints)} peers up")
        with cluster.client() as client:
            # Cold pass stores each query's partition at its replica set;
            # the warm pass must then answer everything from cache.
            for query in QUERIES:
                client.query(query)
            print(f"warm queries: mean recall {mean_recall(client):.2f}")

            # A new peer joins; rebalancing hands it the entries it now
            # replicates, without interrupting the workload.
            cluster.spawn("peer-5")
            client.refresh()
            print(
                f"peer-5 joined: {len(client.members)} members, "
                f"mean recall {mean_recall(client):.2f}"
            )

            # Graceful leave: peer-1 pushes its entries to their
            # post-leave replica sets before exiting, so nothing is lost.
            moved = client.leave("peer-1")
            print(
                f"peer-1 left gracefully, handed off {moved} copies, "
                f"mean recall {mean_recall(client):.2f}"
            )

            # Abrupt kill: no goodbye, no hand-off. Lookups fail over
            # down the successor list; the servers re-create the lost
            # copies themselves once SWIM has evicted the dead peer.
            cluster.kill("peer-2")
            recall = mean_recall(client)
            failovers = client.system.counters.failovers
            print(
                f"peer-2 SIGKILLed: mean recall {recall:.2f} "
                f"({failovers} failovers)"
            )
            started = time.monotonic()
            while time.monotonic() - started < 60.0:
                try:
                    client.refresh()
                    if (
                        "peer-2" not in client.members
                        and client.under_replicated() == 0
                    ):
                        break
                except ReproError:
                    pass  # a peer is mid-transition; poll again
                time.sleep(0.5)
            else:
                raise SystemExit("the ring did not heal within 60 s")
            print(
                f"ring healed itself: every key back at {config.replicas} "
                f"copies in {time.monotonic() - started:.1f}s"
            )


if __name__ == "__main__":
    main()
