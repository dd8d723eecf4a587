"""Cross-transport equivalence: one engine, three transports.

The paper's query procedure is implemented once
(:class:`repro.rpc.engine.QueryEngine`); the synchronous, discrete-event
and socket paths differ only in their :class:`~repro.net.transport.Transport`.
With zero faults and a fixed seed, the same workload through all three
must produce identical result sets, identical system counters and
identical trace span shapes — any divergence means a transport leaked
semantics into the procedure.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.chord.hashing import node_id_for_address
from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.client import ClusterClient
from repro.rpc.engine import TimedQueryResult
from repro.rpc.server import PeerServer
from repro.sim.query import AsyncQueryEngine
from repro.sim.repair import ReplicaRepairer
from repro.storage.bucket import COLUMNAR_MIN_ENTRIES
from repro.workloads.generators import UniformRangeWorkload

# The in-loop clusters below close their loop right after the servers: a
# connection reader or serve task left behind surfaces there.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)

N_PEERS = 12
SEED = 2003
ADDRESSES = [f"peer-{i}" for i in range(N_PEERS)]

# A short workload with re-queries, so cold misses, exact hits and
# near-miss approximate matches all occur.
QUERIES = [
    IntRange(100, 200),
    IntRange(100, 200),
    IntRange(100, 199),
    IntRange(400, 600),
    IntRange(402, 600),
]
ORIGIN_ADDRESSES = ["peer-0", "peer-3", "peer-7", "peer-1", "peer-9"]

# A few dozen near-identical ranges: they share group identifiers, so
# their buckets fill past the size at which Bucket.best_match switches to
# the vectorised column pass — the five ranges above never get there.
# The tail re-queries a stored range and probes two neighbours.
OVERFULL_QUERIES = [IntRange(300 + i % 3, 640 + i) for i in range(36)] + [
    IntRange(300, 640),
    IntRange(301, 655),
    IntRange(299, 700),
]
OVERFULL_ORIGIN_ADDRESSES = [
    f"peer-{(5 * i) % N_PEERS}" for i in range(len(OVERFULL_QUERIES))
]


def make_config() -> SystemConfig:
    return SystemConfig(n_peers=N_PEERS, seed=SEED, replicas=2)


def origins(addresses=ORIGIN_ADDRESSES) -> list[int]:
    return [node_id_for_address(address, 32) for address in addresses]


def run_extras(documents: list, stores) -> dict:
    """What only the overfull-bucket tests look at: the full trace
    documents and the size of the fullest bucket on any peer."""
    return {
        "traces": documents,
        "largest_bucket": max(
            len(store.bucket(identifier))
            for store in stores
            for identifier in store.identifiers()
        ),
    }


def result_row(result) -> tuple:
    """What every transport must agree on for one query: the outcome, the
    result's type, the hops it cost and the peers that answered."""
    return (
        str(result.matched) if result.matched is not None else None,
        result.exact,
        result.stored,
        result.similarity,
        result.recall,
        type(result),
        result.overlay_hops,
        result.answered_by,
    )


def approx_row(row: tuple) -> tuple:
    """``row`` with similarity and recall compared to float tolerance."""
    return (*row[:3], pytest.approx(row[3]), pytest.approx(row[4]), *row[5:])


def span_shape(span_dict: dict) -> tuple:
    """A span's comparable shape: name, event names, child shapes."""
    return (
        span_dict["name"],
        tuple(event["name"] for event in span_dict["events"]),
        tuple(span_shape(child) for child in span_dict["spans"]),
    )


def trace_shape(trace) -> tuple:
    document = trace.to_dict()
    root = document.get("root", document)
    return span_shape(root)


def counters_row(counters) -> tuple:
    return (
        counters.queries,
        counters.exact_hits,
        counters.misses,
        counters.stores,
        counters.placements,
        counters.replica_placements,
        counters.overlay_hops,
        counters.failovers,
        counters.failed_lookups,
    )


def run_sync(queries=QUERIES, origin_addresses=ORIGIN_ADDRESSES):
    system = RangeSelectionSystem(make_config())
    rows, shapes, documents = [], [], []
    for query, origin in zip(queries, origins(origin_addresses)):
        trace = system.start_trace(query)
        rows.append(result_row(system.query(query, origin=origin, trace=trace)))
        shapes.append(trace_shape(trace))
        documents.append(trace.to_dict())
    extras = run_extras(documents, system.stores.values())
    return rows, shapes, counters_row(system.counters), system, extras


def run_sim(queries=QUERIES, origin_addresses=ORIGIN_ADDRESSES):
    system = RangeSelectionSystem(make_config())
    engine = AsyncQueryEngine(system, seed=SEED)
    rows, shapes, documents = [], [], []
    for query, origin in zip(queries, origins(origin_addresses)):
        trace = engine.start_trace(query)
        rows.append(result_row(engine.run(query, origin=origin, trace=trace)))
        shapes.append(trace_shape(trace))
        documents.append(trace.to_dict())
    extras = run_extras(documents, system.stores.values())
    return rows, shapes, counters_row(system.counters), system, extras


def boot_ring(
    loop, addresses, config, servers=(), **server_options
) -> list[PeerServer]:
    """In-process peer servers on ``loop``, joined one after another
    (onto the ring of ``servers``, when given)."""
    servers = list(servers)

    async def boot():
        for address in addresses:
            bootstrap = (servers[0].host, servers[0].port) if servers else None
            server = PeerServer(
                address, config, bootstrap=bootstrap, **server_options
            )
            await server.start()
            servers.append(server)

    loop.run_until_complete(boot())
    return servers


def close_ring(loop, servers) -> None:
    async def teardown():
        for server in servers:
            await server.close()
        # Let the loops close() cancelled unwind before the loop goes.
        await asyncio.sleep(0.05)

    loop.run_until_complete(teardown())
    loop.close()


def run_socket(
    queries=QUERIES, origin_addresses=ORIGIN_ADDRESSES, **client_options
):
    loop = asyncio.new_event_loop()
    servers = boot_ring(loop, ADDRESSES, make_config())
    bootstrap = (servers[0].host, servers[0].port)
    rows, shapes, documents = [], [], []
    try:
        client = ClusterClient(bootstrap, loop=loop, **client_options)
        for query, origin in zip(queries, origins(origin_addresses)):
            trace = client.start_trace(query)
            rows.append(
                result_row(client.query(query, origin=origin, trace=trace))
            )
            shapes.append(trace_shape(trace))
            documents.append(trace.to_dict())
        counters = counters_row(client.system.counters)
        system = client.system
        extras = run_extras(documents, [server.store for server in servers])
    finally:
        close_ring(loop, servers)
    return rows, shapes, counters, system, extras


@pytest.fixture(scope="module")
def sync_run():
    return run_sync()


@pytest.fixture(scope="module")
def sim_run():
    return run_sim()


@pytest.fixture(scope="module")
def socket_run():
    # Default policies off, for the reason given above ``overfull_runs``:
    # one stall past 100 ms would add a ``retry`` span on this side only.
    return run_socket(policies=False)


def test_socket_ring_matches_in_process_ring(sync_run, socket_run):
    # Node ids are SHA-1 of addresses in both worlds, so the socket
    # client's mirror must place identifiers on the very same ring.
    assert (
        socket_run[3].router.node_ids == sync_run[3].router.node_ids
    )


def test_results_identical_across_transports(sync_run, sim_run, socket_run):
    sync_rows, sim_rows, socket_rows = sync_run[0], sim_run[0], socket_run[0]
    for index, sync_row in enumerate(sync_rows):
        expected = approx_row(sync_row)
        assert sim_rows[index] == expected, f"sim diverged on query {index}"
        assert socket_rows[index] == expected, (
            f"socket diverged on query {index}"
        )
    # The workload exercises all interesting outcomes.
    assert sync_rows[0][0] is None and sync_rows[0][2]  # cold miss, stored
    assert sync_rows[1][1]  # exact re-query hit
    assert sync_rows[2][0] is not None and not sync_rows[2][1]  # approx
    # One result type on every transport.
    assert {row[5] for row in sync_rows + sim_rows + socket_rows} == {
        TimedQueryResult
    }


def test_trace_shapes_identical_across_transports(
    sync_run, sim_run, socket_run
):
    for index in range(len(QUERIES)):
        assert sync_run[1][index] == sim_run[1][index], (
            f"sync/sim trace shape diverged on query {index}"
        )
        assert sync_run[1][index] == socket_run[1][index], (
            f"sync/socket trace shape diverged on query {index}"
        )


def test_trace_shape_has_expected_skeleton(sync_run):
    name, _, children = sync_run[1][0]
    assert name == "query"
    child_names = [child[0] for child in children]
    assert child_names[:2] == ["hash", "locate"]
    assert "store" in child_names  # cold miss stores
    locate = children[1]
    chain_names = [chain[0] for chain in locate[2]]
    assert chain_names == ["chain"] * 5  # one span per lookup chain


def test_counters_identical_across_transports(sync_run, sim_run, socket_run):
    assert sync_run[2] == sim_run[2]
    assert sync_run[2] == socket_run[2]


def test_unknown_recipient_fails_over_identically_in_process():
    # A peer gone from the network but still on the ring: a request to it
    # rejects (it used to raise out of the synchronous query), and the
    # chain walks on to the next replica — same answers, same counters.
    def requery(system, network, start_trace, run):
        network.unregister(
            system.replica_owners(system.identifiers_for(QUERIES[0])[0])[0]
        )
        rows, shapes = [], []
        for query, origin in zip(QUERIES, origins()):
            trace = start_trace(query)
            rows.append(result_row(run(query, origin=origin, trace=trace)))
            shapes.append(trace_shape(trace))
        return rows, shapes, counters_row(system.counters)

    sync = warmed_system()
    sync_run = requery(sync, sync.network, sync.start_trace, sync.query)
    engine = AsyncQueryEngine(warmed_system(), seed=SEED)
    sim_run = requery(engine.system, engine.net, engine.start_trace, engine.run)
    assert sync_run == sim_run
    assert all(row[0] is not None for row in sync_run[0])
    assert sync.counters.failovers > 0 and sync.counters.failed_lookups == 0


# -- the same, with buckets on the vectorised match path --------------------


@pytest.fixture(scope="module")
def overfull_runs():
    workload = (OVERFULL_QUERIES, OVERFULL_ORIGIN_ADDRESSES)
    # Client and servers share this process: with the default policies a
    # garbage-collection pause past the adaptive timeout's 100 ms floor
    # re-sends a store, the second copy answers "not new", and the
    # counters drift.  No fault is injected, so the policies stay off.
    return [
        run_sync(*workload),
        run_sim(*workload),
        run_socket(*workload, policies=False),
    ]


def match_scores(document: dict) -> list:
    """Every score a trace recorded (each chain's ``match-reply`` event,
    the locate span's ``best_score``), in document order."""
    holders = [document["attrs"]] + [event["attrs"] for event in document["events"]]
    found = [
        attrs[key]
        for attrs in holders
        for key in ("score", "best_score")
        if key in attrs
    ]
    for child in document["spans"]:
        found.extend(match_scores(child))
    return found


def test_overfull_buckets_identical_across_transports(overfull_runs):
    sync, sim, socket = overfull_runs
    for run in overfull_runs:
        assert run[4]["largest_bucket"] >= 2 * COLUMNAR_MIN_ENTRIES
    # Exact equality, not approx: the column pass must reproduce the
    # scalar scores bit for bit, whichever side of the wire computed them.
    assert sync[0] == sim[0] == socket[0]
    assert sync[1] == sim[1] == socket[1]
    assert sync[2] == sim[2] == socket[2]
    outcomes = {(row[0] is not None, row[1]) for row in sync[0]}
    assert {(False, False), (True, False), (True, True)} <= outcomes


def test_match_scores_stay_python_floats_on_the_vectorised_path(overfull_runs):
    # A numpy scalar from the column pass would ride silently through
    # results, trace events and the JSON codec (np.float64 is a float).
    sync = overfull_runs[0]
    for run in overfull_runs:
        for row in run[0]:
            assert type(row[3]) is float and type(row[4]) is float
        scores = [match_scores(document) for document in run[4]["traces"]]
        assert scores == [match_scores(d) for d in sync[4]["traces"]]
        flat = [score for per_query in scores for score in per_query]
        assert any(score is not None and 0.0 < score < 1.0 for score in flat)
        assert all(score is None or type(score) is float for score in flat)


# -- placement executors: one planner behind every repair path --------------


def holder_sets(stores, alive) -> dict:
    """(identifier, descriptor) -> the alive peers holding a copy."""
    held: dict = {}
    for store in stores:
        if store.peer_id in alive:
            for identifier, entry in store.entries():
                held.setdefault(
                    (identifier, str(entry.descriptor)), set()
                ).add(store.peer_id)
    return held


def warmed_system() -> RangeSelectionSystem:
    system = RangeSelectionSystem(make_config())
    for query, origin in zip(QUERIES, origins()):
        system.query(query, origin=origin)
    return system


def repair_counts(system: RangeSelectionSystem) -> dict[str, float]:
    """What a repair round left in the system's registry."""
    names = (
        "repair.rounds", "repair.copies_created", "repair.copy_failures",
        "repair.unrepairable", "system.repairs",
    )
    return {name: system.metrics.counter(name).get() for name in names}


def test_repair_after_a_crash_converges_identically_across_transports():
    # One seeded crash, three executors of the same plan: the synchronous
    # pass and the simulated repairer's round (one round, two transports),
    # and the live servers' loop.
    sync = warmed_system()
    victim = sync.replica_owners(sync.identifiers_for(QUERIES[0])[0])[0]
    alive = set(sync.router.node_ids) - {victim}
    sync.crash_peer(victim)
    copies = sync.repair_replicas()
    assert copies > 0
    expected = holder_sets(sync.stores.values(), alive)
    assert all(len(peers) == 2 for peers in expected.values())
    counts = repair_counts(sync)
    assert counts["repair.rounds"] == 1
    assert counts["repair.copies_created"] == counts["system.repairs"] == copies

    engine = AsyncQueryEngine(warmed_system(), seed=SEED)
    engine.system.crash_peer(victim)
    engine.sim.run_until_complete(ReplicaRepairer(engine).run_round())
    assert holder_sets(engine.system.stores.values(), alive) == expected
    assert repair_counts(engine.system) == counts

    loop = asyncio.new_event_loop()
    servers = boot_ring(
        loop, ADDRESSES, make_config(), repair_interval_ms=50.0
    )
    try:
        client = ClusterClient((servers[0].host, servers[0].port), loop=loop)
        for query, origin in zip(QUERIES, origins()):
            client.query(query, origin=origin)
        doomed = next(s for s in servers if s.node_id == victim)
        loop.run_until_complete(doomed.close())
        # SWIM is off here, so deliver its verdict by hand: the same
        # gossip record a confirming peer would broadcast.
        obituary = {
            "epoch": 0,
            "members": {
                doomed.address: [doomed.host, doomed.port, "dead", 0]
            },
        }
        survivors = [s for s in servers if s is not doomed]
        for server in survivors:
            loop.run_until_complete(
                wire.call(server.host, server.port, "member-update", obituary)
            )
        live = {}
        for _ in range(400):
            live = holder_sets([s.store for s in survivors], alive)
            if live == expected:
                break
            loop.run_until_complete(asyncio.sleep(0.05))
        assert live == expected
    finally:
        close_ring(loop, servers)


def test_joins_leave_one_primary_per_key_at_its_owner():
    # Regression: the live rebalance used to promote but never demote, so
    # every join that took over a key's ownership left a second primary
    # behind.  4 peers warmed, then grown to 8.
    config = SystemConfig(n_peers=4, seed=SEED, replicas=3)
    loop = asyncio.new_event_loop()
    servers = boot_ring(loop, ADDRESSES[:4], config)
    try:
        client = ClusterClient((servers[0].host, servers[0].port), loop=loop)
        for query in UniformRangeWorkload(config.domain, 40, seed=SEED).ranges():
            client.query(query)
        servers = boot_ring(loop, ADDRESSES[4:8], config, servers)

        def assert_one_primary_at_each_owner(n_members: int) -> None:
            client.refresh()
            copies: dict = {}
            for address in client.members:
                for identifier, descriptor, _rows, primary in client.entries_of(
                    address
                ):
                    node = node_id_for_address(address, config.id_bits)
                    copies.setdefault((identifier, descriptor), {})[node] = primary
            assert len(client.members) == n_members and copies
            for (identifier, _descriptor), flags in copies.items():
                owners = client.system.replica_owners(identifier)
                assert set(flags) == set(owners)
                assert [n for n, primary in flags.items() if primary] == owners[:1]

        assert_one_primary_at_each_owner(8)
        # A graceful leave moves ranks the other way: survivors whose
        # digest already shows the copy must still be promoted, with the
        # repair loop off (the default here).
        client.leave(servers[3].address)
        assert_one_primary_at_each_owner(7)
    finally:
        close_ring(loop, servers)


def test_refresh_keeps_the_hashing_front_until_the_config_moves():
    config = SystemConfig(n_peers=2, seed=SEED)
    loop = asyncio.new_event_loop()
    servers = boot_ring(loop, ADDRESSES[:2], config)
    try:
        client = ClusterClient((servers[0].host, servers[0].port), loop=loop)
        first = client.system
        probe = IntRange(120, 480)
        servers = boot_ring(loop, ADDRESSES[2:3], config, servers)
        client.refresh()
        # A new member: a new mirror and ring, the same scheme.
        assert client.system is not first and len(client.members) == 3
        assert client.system.scheme is first.scheme
        # The bootstrap now announces another seed: every function differs.
        reseeded = dataclasses.replace(config, seed=SEED + 1)
        servers[0].config = reseeded
        client.refresh()
        assert client.system.scheme is not first.scheme
        assert client.system.identifiers_for(probe) == (
            RangeSelectionSystem(reseeded).identifiers_for(probe)
        )
        assert client.system.identifiers_for(probe) != first.identifiers_for(probe)
    finally:
        close_ring(loop, servers)
