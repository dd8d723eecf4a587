"""What one exchange, one route and one query cost on the in-process transports.

    python benchmarks/inprocess_cost.py [--seed 1] [--rounds 5] [--seconds 10]

Times the plumbing every in-process query crosses, beside the queries
themselves:

- ``exchange_us``: one match request and its reply through
  ``AsyncNetwork.request`` on a 64-peer system, driven to completion by
  the kernel (``Simulator.run_until_complete``);
- ``sync_send_us``: the same match request as one ``SimulatedNetwork.send``;
- ``lookup_1k_us`` / ``lookup_10k_us``: one ``ChordRing.lookup_path`` of a
  random key from a random peer on a built ring;
- ``timer_us``: one kernel timer armed with ``call_later`` and fired by
  ``Simulator.run``;
- ``<workload>_steady_us`` for ``sim_10k``, ``sync_route_10k`` and
  ``sync_match_1k``: the e2e benchmark's inputs for that workload (its
  rigs and its counts at ``--seconds``), three repetitions on freshly
  built state, each query's minimum wall time over the three, then the
  median over the queries.  Set-up and warm-up are not timed.

Each figure is the median over ``--rounds`` rounds; one round measures
every figure once.  Prints one JSON line.  Not part of
``benchmarks/e2e``: the e2e benchmark measures whole runs, this one
splits a query into the costs the transports add to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from repro.chord.ring import ChordRing  # noqa: E402
from repro.core.config import SystemConfig  # noqa: E402
from repro.core.system import (  # noqa: E402
    SIM_ATTRIBUTE,
    SIM_RELATION,
    RangeSelectionSystem,
)
from repro.ranges.interval import IntRange  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.sim.query import AsyncQueryEngine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Operations per timed batch of the micro figures.
EXCHANGES = 5_000
LOOKUPS = 20_000
TIMERS = 50_000
#: The e2e workloads whose steady per-query cost is reported.
STEADY = ("sim_10k", "sync_route_10k", "sync_match_1k")
STEADY_REPS = 3


def per_op_us(run, ops: int) -> float:
    gc.collect()
    started = time.perf_counter()
    run()
    return (time.perf_counter() - started) * 1e6 / ops


def exchange_pairs(system: RangeSelectionSystem, count: int, seed: int) -> list[tuple]:
    """``(sender, recipient, payload)`` of ``count`` match requests
    between random peers of ``system``."""
    rnd = random.Random(seed)
    ids = system.router.node_ids
    query = IntRange(100, 180)
    return [
        (
            rnd.choice(ids),
            rnd.choice(ids),
            (rnd.randrange(1 << 32), query, SIM_RELATION, SIM_ATTRIBUTE),
        )
        for _ in range(count)
    ]


def exchange_us(engine: AsyncQueryEngine, pairs: list[tuple]) -> float:
    net, sim = engine.net, engine.sim

    def run() -> None:
        for sender, recipient, payload in pairs:
            sim.run_until_complete(net.request(sender, recipient, "match-request", payload))

    return per_op_us(run, len(pairs))


def sync_send_us(system: RangeSelectionSystem, pairs: list[tuple]) -> float:
    send = system.network.send

    def run() -> None:
        for sender, recipient, payload in pairs:
            send(sender, recipient, "match-request", payload)

    return per_op_us(run, len(pairs))


def built_ring(peers: int) -> ChordRing:
    ring = ChordRing(m=32)
    ring.add_nodes(peers)
    ring.build()
    return ring


def lookup_us(ring: ChordRing, seed: int) -> float:
    rnd = random.Random(seed)
    ids = ring.node_ids
    probes = [(rnd.randrange(ring.space.size), rnd.choice(ids)) for _ in range(LOOKUPS)]
    lookup_path = ring.lookup_path

    def run() -> None:
        for key, start in probes:
            lookup_path(key, start)

    return per_op_us(run, LOOKUPS)


def timer_us() -> float:
    sim = Simulator()

    def noop() -> None:
        return None

    def run() -> None:
        call_later = sim.call_later
        for i in range(TIMERS):
            call_later(float(i % 97), noop)
        sim.run()

    return per_op_us(run, TIMERS)


def steady_us(name: str, seed: int, seconds: float) -> float:
    """Per query: the least wall time over the repetitions; then the
    median over the queries."""
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, seconds, 1)
    best: list[float] | None = None
    for _ in range(STEADY_REPS):
        rig = workload.make_rig(inputs, None)
        for r in inputs.warmup:
            rig.query(r)
        gc.collect()
        times = []
        for r in inputs.timed:
            started = time.perf_counter()
            rig.query(r)
            times.append(time.perf_counter() - started)
        rig.close()
        best = times if best is None else [min(a, b) for a, b in zip(best, times)]
        del rig
    return statistics.median(best) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="scale the steady workloads' timed counts as run.py does",
    )
    args = parser.parse_args()
    system = RangeSelectionSystem(SystemConfig(n_peers=64, seed=args.seed))
    engine = AsyncQueryEngine(system)
    pairs = exchange_pairs(system, EXCHANGES, args.seed)
    rings = {peers: built_ring(peers) for peers in (1_000, 10_000)}
    rounds: list[dict[str, float]] = []
    for _ in range(args.rounds):
        row = {
            "exchange_us": exchange_us(engine, pairs),
            "sync_send_us": sync_send_us(system, pairs),
            "lookup_1k_us": lookup_us(rings[1_000], args.seed),
            "lookup_10k_us": lookup_us(rings[10_000], args.seed),
            "timer_us": timer_us(),
        }
        for name in STEADY:
            row[f"{name}_steady_us"] = steady_us(name, args.seed, args.seconds)
        rounds.append(row)
    out: dict[str, float] = {"rounds": args.rounds, "seconds": args.seconds}
    for key in rounds[0]:
        out[key] = round(statistics.median(row[key] for row in rounds), 2)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
