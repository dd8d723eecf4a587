"""Where a live read's CPU goes: the client, the peers, and the wire floor.

    python benchmarks/live_client_cpu.py [--seed 1] [--rounds 5]

Starts 8 forked peers with ``replicas=3`` (the e2e benchmark's
``live_read_8p`` cluster), pre-stores and warms up with that workload's
inputs, and then times its 500 queries through ``ClusterClient.query``
with ``policies=False`` and a 30 s timeout, as the e2e rig does.  Next to
that it times the *raw floor*: the same five ``match-request`` exchanges
per query, to the same owners, sent as bare ``wire.call`` s over the
client's own cached connections, with hashing and routing done up
front.  Whatever the client spends above the floor is the query engine,
the transport and their bookkeeping, not the wire.

``--rounds`` alternates the two passes that many times; each figure is
the median over the rounds (a shared box disturbs single rounds by tens
of percent, in both directions).  Prints one JSON line:
client user+sys CPU per query (``os.times``), the peers' summed CPU per
query (``/proc/<pid>/stat``), queries per second, and the same three for
the raw floor.  Not part of ``benchmarks/e2e``: the e2e benchmark
measures the whole query, this one splits it.  Leaves no peer process and
no data directory behind (the cluster is in-memory and shut down on every
exit path).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from repro.core.config import SystemConfig  # noqa: E402
from repro.core.system import SIM_ATTRIBUTE, SIM_RELATION  # noqa: E402
from repro.rpc import wire  # noqa: E402
from repro.rpc.cluster import LocalCluster  # noqa: E402
from workloads import (  # noqa: E402
    CLIENT_TIMEOUT_MS,
    LIVE_PEERS,
    LIVE_REPLICAS,
    RUN_SECONDS,
    WORKLOADS,
)


def client_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def peers_cpu_s(cluster: LocalCluster) -> float:
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for process in cluster.processes.values():
        stat = Path(f"/proc/{process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[-1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / ticks


def timed(cluster: LocalCluster, queries: int, run) -> dict[str, float]:
    """CPU per query on both sides and qps of ``run()``."""
    client_before, peers_before = client_cpu_s(), peers_cpu_s(cluster)
    started = time.perf_counter()
    run()
    wall = time.perf_counter() - started
    return {
        "client_cpu_ms": (client_cpu_s() - client_before) * 1e3 / queries,
        "peers_cpu_ms": (peers_cpu_s(cluster) - peers_before) * 1e3 / queries,
        "qps": queries / wall,
    }


def raw_plan(client, ranges) -> list[list[tuple]]:
    """Per query, the ``(endpoint, payload, origin, owner)`` of each of its
    match requests, computed exactly as the engine does before it sends."""
    system = client.system
    plans = []
    for r in ranges:
        origin = client.pick_origin()
        hashed, _ = system.pad_query(r)
        plan = []
        for identifier in system.identifiers_for(hashed):
            owner = system.router.route(
                system.place_identifier(identifier), start_id=origin
            )[-1]
            payload = (identifier, hashed, SIM_RELATION, SIM_ATTRIBUTE)
            plan.append((system.endpoints[owner], payload, origin, owner))
        plans.append(plan)
    return plans


def raw_pass(client, plans) -> None:
    """The floor: each query's match requests as concurrent bare calls."""
    connections = client.connections

    async def one(plan) -> None:
        await asyncio.gather(*[
            wire.call(
                host, port, "match-request", payload,
                connections=connections, sender=origin, peer_id=owner,
            )
            for (host, port), payload, origin, owner in plan
        ])

    for plan in plans:
        client.loop.run_until_complete(one(plan))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    # A terminated run unwinds through the cluster's shutdown like Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    inputs = WORKLOADS["live_read_8p"].inputs(args.seed, RUN_SECONDS, 1)
    queries = len(inputs.timed)
    engine_rounds, raw_rounds = [], []
    config = SystemConfig(n_peers=LIVE_PEERS, replicas=LIVE_REPLICAS)
    with LocalCluster(LIVE_PEERS, config) as cluster:
        with cluster.client(policies=False, timeout_ms=CLIENT_TIMEOUT_MS) as client:
            for r in inputs.prestore + inputs.warmup:
                client.query(r)
            plans = raw_plan(client, inputs.timed)
            raw_pass(client, plans)  # warm the floor's own path too

            def engine_pass() -> None:
                for r in inputs.timed:
                    client.query(r)

            for _ in range(args.rounds):
                engine_rounds.append(timed(cluster, queries, engine_pass))
                raw_rounds.append(
                    timed(cluster, queries, lambda: raw_pass(client, plans))
                )
    engine = {key: statistics.median(row[key] for row in engine_rounds) for key in engine_rounds[0]}
    raw = {key: statistics.median(row[key] for row in raw_rounds) for key in raw_rounds[0]}
    print(json.dumps({
        "queries": queries,
        "rounds": args.rounds,
        "client_cpu_ms_per_query": round(engine["client_cpu_ms"], 4),
        "peers_cpu_ms_per_query": round(engine["peers_cpu_ms"], 4),
        "qps": round(engine["qps"], 1),
        "raw_client_cpu_ms_per_query": round(raw["client_cpu_ms"], 4),
        "raw_peers_cpu_ms_per_query": round(raw["peers_cpu_ms"], 4),
        "raw_qps": round(raw["qps"], 1),
    }))


if __name__ == "__main__":
    main()
