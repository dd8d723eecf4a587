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

from repro import IntRange, SystemConfig
from repro.rpc import drills
from repro.rpc.cluster import LocalCluster

QUERIES = [IntRange(100, 200), IntRange(400, 550), IntRange(700, 820)]


def main() -> None:
    config = SystemConfig(n_peers=5, replicas=3, seed=7)
    with LocalCluster(5, config) as cluster:
        print(f"cluster: {len(cluster.endpoints)} peers up")
        with cluster.client() as client:
            # Cold pass stores each query's partition at its replica set;
            # the warm pass must then answer everything from cache.
            for query in QUERIES:
                client.query(query)
            recall = drills.mean_recall(client, QUERIES)
            print(f"warm queries: mean recall {recall:.2f}")

            # A new peer joins; rebalancing hands it the entries it now
            # replicates, without interrupting the workload.
            cluster.spawn("peer-5")
            client.refresh()
            print(
                f"peer-5 joined: {len(client.members)} members, "
                f"mean recall {drills.mean_recall(client, QUERIES):.2f}"
            )

            # Graceful leave: peer-1 pushes its entries to their
            # post-leave replica sets before exiting, so nothing is lost.
            moved = client.leave("peer-1")
            print(
                f"peer-1 left gracefully, handed off {moved} copies, "
                f"mean recall {drills.mean_recall(client, QUERIES):.2f}"
            )

            # Abrupt kill: no goodbye, no hand-off. Lookups fail over
            # down the successor list; the servers re-create the lost
            # copies themselves once SWIM has evicted the dead peer.
            cluster.kill("peer-2")
            recall = drills.mean_recall(client, QUERIES)
            failovers = client.system.counters.failovers
            print(
                f"peer-2 SIGKILLed: mean recall {recall:.2f} "
                f"({failovers} failovers)"
            )
            heal_ms = drills.wait_for(
                lambda: drills.healed(cluster, client),
                "the ring to heal",
                60.0,
            )
            print(
                f"ring healed itself: every key back at {config.replicas} "
                f"copies in {heal_ms / 1000.0:.1f}s"
            )


if __name__ == "__main__":
    main()
