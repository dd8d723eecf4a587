"""A lookup chain's route lands exactly where a hop-by-hop walk would.

:class:`~repro.rpc.engine.QueryEngine` routes every chain with one
:meth:`~repro.net.transport.Transport.travel`: every edge is charged and
the route lands at the departure time plus each edge's delay in turn —
on the event-driven transport as one step, on the others as one step up
to the owner's predecessor and one ``hop`` into the owner.  The reference
below is the walk that replaced: one continuation and one landing per hop
(on the event-driven transport, one kernel event per hop).  The same
workload run both ways must agree bit for bit on every query's timings,
hop counts and answering peers, and on every traced ``route-hop`` event;
and each hop's folded timestamp must be the clock reading the walk saw
when that hop landed.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.net.latency import ConstantLatency, SeededLatency
from repro.net.transport import Transport
from repro.ranges.interval import IntRange
from repro.sim.network import AsyncNetwork
from repro.sim.query import AsyncQueryEngine
from repro.workloads.generators import UniformRangeWorkload
from tests.test_rpc_engine import run_socket

SEED = 31


def per_hop(walks: list):
    """:meth:`Transport.travel` as the walk it replaced: one ``hop`` and
    one continuation per edge (on the event-driven transport, one kernel
    event per edge).

    Each walk is logged as ``(path, landings)``: the clock reading at
    each hop's landing.
    """

    def walk(transport, path, fn):
        delays: list[float] = []
        landings: list[float] = []
        walks.append((path, landings))

        def step(delay=None):
            if delay is not None:
                delays.append(delay)
                landings.append(transport.now())
            edge = len(delays)
            if edge == len(path) - 1:
                fn(delays)
                return
            transport.hop(path[edge], path[edge + 1], step)

        step()

    return walk


def timings(result) -> tuple:
    """Everything timed or routed about one query."""
    return (
        result.total_ms,
        result.answered_by,
        tuple((c.route_ms, c.completed_ms, c.hops) for c in result.chains),
    )


def route_hops(document: dict) -> list[tuple]:
    """Every chain's ``route-hop`` events as ``(at_ms, attrs)``, in order."""
    found = []
    if document["name"] == "chain":
        found += [
            (event["at_ms"], event["attrs"])
            for event in document["events"]
            if event["name"] == "route-hop"
        ]
    for child in document["spans"]:
        found += route_hops(child)
    return found


def assert_stamped_at_landings(walks: list, hops: list) -> None:
    """Every traced hop carries the clock reading its walk saw when that
    edge landed (walks also hold the failover steps, which trace no hop)."""
    landed = Counter(
        (path[edge], path[edge + 1], at)
        for path, landings in walks
        for edge, at in enumerate(landings)
    )
    stamped = Counter(
        (attrs["source"], attrs["target"], at)
        for query in hops
        for at, attrs in query
    )
    assert stamped and not stamped - landed


# -- the synchronous transport, with real wire time -------------------------


def run_sync() -> tuple[list, list, RangeSelectionSystem]:
    system = RangeSelectionSystem(SystemConfig(n_peers=64, seed=SEED, replicas=2))
    system.network.latency = SeededLatency(10.0, 100.0, seed=SEED)
    ranges = UniformRangeWorkload(system.config.domain, 30, seed=SEED).ranges()
    rows, hops = [], []
    for index, query in enumerate(ranges + ranges[:10]):
        if index == 20:
            # The first query's first answer, asked again from index 30.
            system.crash_peer(rows[0][1][0])
        trace = system.start_trace(query)
        rows.append(timings(system.query(query, trace=trace)))
        hops.append(route_hops(trace.to_dict()))
    return rows, hops, system


def test_sync_routes_like_the_hop_by_hop_walk(monkeypatch):
    rows, hops, system = run_sync()
    walks: list = []
    monkeypatch.setattr(Transport, "travel", per_hop(walks))
    reference_rows, reference_hops, _ = run_sync()
    assert rows == reference_rows
    assert hops == reference_hops
    assert_stamped_at_landings(walks, hops)
    assert sum(len(h) for h in hops) > 100
    assert system.counters.failovers > 0  # the crash took a failover travel


# -- the event-driven transport: replicas, hedges and a crash ---------------


#: Milliseconds between two queries' launches.
GAP_MS = 25.0
#: Seeded per-link delays; and one delay for every link, queries launched
#: that same delay apart, so that many events of different chains fall due
#: at the same instant and fire in the kernel's tie-break order.
LATENCIES = {
    "seeded": lambda: SeededLatency(10.0, 100.0, seed=SEED),
    "constant": lambda: ConstantLatency(GAP_MS),
}


def run_sim(latency: str) -> tuple[list, list, AsyncQueryEngine]:
    system = RangeSelectionSystem(
        SystemConfig(n_peers=64, seed=SEED, replicas=3, hedge=True)
    )
    engine = AsyncQueryEngine(system, latency=LATENCIES[latency](), seed=SEED)
    ranges = UniformRangeWorkload(system.config.domain, 60, seed=SEED).ranges()
    # Overlapping queries, so chains of different queries interleave on
    # the clock.
    futures = []

    def launch(query: IntRange) -> None:
        trace = engine.start_trace(query)
        futures.append((engine.query(query, trace=trace), trace))

    for index, query in enumerate(ranges + ranges[:20]):
        engine.sim.call_at(GAP_MS * index, lambda query=query: launch(query))

    def crash() -> None:
        # The owner of the first query's first identifier and the replica
        # a hedge would try next die; the tail asks them again.
        identifier = futures[0][0].result().chains[0].identifier
        for peer in system.replica_owners(identifier)[:2]:
            engine.crash_peer(peer)

    engine.sim.call_at(GAP_MS * 30, crash)
    engine.sim.run()
    rows = [timings(future.result()) for future, _ in futures]
    hops = [route_hops(trace.to_dict()) for _, trace in futures]
    return rows, hops, engine


@pytest.mark.parametrize("latency", sorted(LATENCIES))
def test_sim_routes_like_the_hop_by_hop_walk(monkeypatch, latency):
    rows, hops, engine = run_sim(latency)
    walks: list = []
    monkeypatch.setattr(AsyncNetwork, "travel", per_hop(walks))
    reference_rows, reference_hops, _ = run_sim(latency)
    assert rows == reference_rows
    assert hops == reference_hops
    assert_stamped_at_landings(walks, hops)
    stats = engine.net.stats
    assert stats.hedge_wins > 0 and stats.failovers > 0


# -- the socket transport: the cross-transport suite's rows ----------------


def socket_rows() -> tuple[list, list]:
    rows, _shapes, _counters, _system, extras = run_socket(policies=False)
    hops = [
        [attrs for _at, attrs in route_hops(document)]
        for document in extras["traces"]
    ]
    return rows, hops


def test_socket_routes_like_the_hop_by_hop_walk(monkeypatch):
    rows, hops = socket_rows()
    walks: list = []
    monkeypatch.setattr(Transport, "travel", per_hop(walks))
    reference_rows, reference_hops = socket_rows()
    # Wall-clock timings differ run to run; outcomes, hops, answering
    # peers and every hop's routing detail may not.
    assert rows == reference_rows
    assert hops == reference_hops
    assert walks and all(hop["delay_ms"] == 0.0 for q in hops for hop in q)
