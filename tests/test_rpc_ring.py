"""Rings of real ``PeerServer``s in one event loop: joins that race,
anti-entropy that idles, request spans that cost a dict.

No processes and no failure detector: every peer runs with SWIM and the
repair loop off, so a member view is complete only if the join path made
it so, and a repair round runs only when the test calls for one.
"""

from __future__ import annotations

import asyncio
import re

import pytest

from repro.core.config import SystemConfig
from repro.db.partition import PartitionDescriptor
from repro.obs.distributed import SpanFragment
from repro.ranges.interval import IntRange
from repro.rpc import wire
from repro.rpc.server import PeerServer
from repro.rpc.swim import ALIVE, MergeOutcome
from tests.test_rpc_connection import HOST, ScriptedPeer, run

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)

CONFIG = SystemConfig(n_peers=4, seed=5, replicas=2)


def peer(index: int, bootstrap: tuple[str, int] | None = None) -> PeerServer:
    return PeerServer(f"peer-{index}", CONFIG, bootstrap=bootstrap)


async def ring(size: int) -> list[PeerServer]:
    """``size`` peers, joined one after another through ``peer-0``."""
    servers = [peer(0)]
    await servers[0].start()
    for index in range(1, size):
        servers.append(peer(index, (HOST, servers[0].port)))
        await servers[-1].start()
    return servers


async def close(*servers: PeerServer) -> None:
    await asyncio.gather(*(server.close() for server in servers))


def views(servers: list[PeerServer]) -> list[set[str]]:
    return [set(server.members) for server in servers]


# -- joins that race -----------------------------------------------------------


def test_concurrent_joiners_all_end_up_in_every_view():
    async def scenario():
        boot = peer(0)
        await boot.start()
        joiners = [peer(index, (HOST, boot.port)) for index in range(1, 7)]
        await asyncio.gather(*(joiner.start() for joiner in joiners))
        everyone = [boot, *joiners]
        try:
            expected = {server.address for server in everyone}
            assert views(everyone) == [expected] * len(everyone)
            # Each mirrored ring is built from that view.
            assert all(len(s.router.ring) == len(everyone) for s in everyone)
        finally:
            await close(*everyone)

    run(scenario())


def test_join_reply_older_than_a_member_update_does_not_wipe_it():
    """Two joiners against a scripted bootstrap that delivers in the
    adverse order: the first joiner hears of the second (the broadcast
    of the second join) *before* its own, older, join reply lands."""

    async def scenario():
        async with ScriptedPeer() as boot:
            boot_record = [HOST, boot.port, ALIVE, 0]
            first, second = peer(1, (HOST, boot.port)), peer(2, (HOST, boot.port))
            starting = [asyncio.ensure_future(j.start()) for j in (first, second)]
            joins = {}
            for request, writer in await boot.received(2):
                assert request["kind"] == "join"
                joins[request["payload"]["address"]] = (request, writer)
            records = {
                address: [HOST, request["payload"]["port"], ALIVE, 0]
                for address, (request, _writer) in joins.items()
            }
            # The reply to the first join was built when it was served:
            # before the second joiner existed.
            stale = {"epoch": 2, "members": {
                "peer-0": boot_record, "peer-1": records["peer-1"],
            }}
            fresh = {"epoch": 3, "members": {"peer-0": boot_record, **records}}
            # The second join's broadcast overtakes it...
            assert await wire.call(
                HOST, records["peer-1"][1], "member-update", fresh,
                sender_address="peer-0",
            )
            assert "peer-2" in first.members
            # ...and only then do the replies arrive.
            for address, reply in (("peer-1", stale), ("peer-2", fresh)):
                request, writer = joins[address]
                await boot.answer(writer, request["id"], reply)
            await asyncio.gather(*starting)
            try:
                expected = {"peer-0", "peer-1", "peer-2"}
                assert views([first, second]) == [expected, expected]
                assert len(first.router.ring) == 3
            finally:
                await close(first, second)

    run(scenario())


# -- anti-entropy that idles ---------------------------------------------------


def desc(start: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(start, start + 9))


def digests_served(servers: list[PeerServer]) -> int:
    return int(sum(s._requests.get(kind="has-entries") for s in servers))


async def full_rounds(servers: list[PeerServer]) -> int:
    """Run one repair round on every peer; how many were not skipped."""
    ran = 0
    for server in servers:
        rounds = server.metrics.counter("repair.push.rounds")
        before = rounds.total()
        await server.placement.repair_round()
        ran += int(rounds.total() - before)
    return ran


async def settle(servers: list[PeerServer]) -> None:
    """Rounds until every peer has seen a clean one (pushes re-arm the
    peers they land on, so this takes a few)."""
    for _ in range(10):
        if await full_rounds(servers) == 0:
            return
    raise AssertionError("the ring never went idle")


async def loaded_ring(size: int = 4, entries: int = 12) -> list[PeerServer]:
    servers = await ring(size)
    for identifier in range(entries):
        # Spread over the identifier space, each stored on its owner only:
        # the first rounds have replicas to create.
        key = identifier * (2**CONFIG.id_bits // entries)
        owner_id = servers[0].replica_owners(key)[0]
        owner = next(s for s in servers if s.node_id == owner_id)
        owner.store.store(key, desc(identifier), None, primary=True)
    await settle(servers)
    return servers


def test_idle_rounds_send_no_digest():
    async def scenario():
        servers = await loaded_ring()
        try:
            # Every key is at its two replicas.
            copies = sum(s.store.partition_count for s in servers)
            assert copies == 12 * CONFIG.replicas
            quiet = digests_served(servers)
            for _ in range(3):
                assert await full_rounds(servers) == 0
            assert digests_served(servers) == quiet
            skipped = servers[0].metrics.counter("repair.push.idle_rounds").total()
            assert skipped >= 3
        finally:
            await close(*servers)

    run(scenario())


def test_a_store_rearms_one_full_round_on_the_peer_that_took_it():
    async def scenario():
        servers = await loaded_ring()
        try:
            key = 12345
            owner_id = servers[0].replica_owners(key)[0]
            owner = next(s for s in servers if s.node_id == owner_id)
            owner.store.store(key, desc(900), None, primary=True)
            before = digests_served(servers)
            await owner.placement.repair_round()  # finds the replica missing, pushes it
            assert digests_served(servers) > before
            # The push re-armed the replica that received it (once), and the
            # owner's round was not clean, so it looks again (once).
            assert await full_rounds(servers) == 2
            assert await full_rounds(servers) == 0
        finally:
            await close(*servers)

    run(scenario())


def test_a_repair_push_received_rearms_one_full_round():
    async def scenario():
        servers = await loaded_ring()
        try:
            target = servers[2]
            # A copy nobody else in the ring knows of, pushed at one peer.
            assert await wire.call(
                HOST, target.port, "repair-push", (777, desc(700), None, False)
            )
            assert await full_rounds(servers) >= 1
            await settle(servers)
            assert await full_rounds(servers) == 0
        finally:
            await close(*servers)

    run(scenario())


def test_join_evict_and_incarnation_change_each_rearm_one_full_round():
    async def scenario():
        servers = await loaded_ring()
        try:
            observer = servers[0]
            # A join: the handler rebalances at once; the next round is a
            # full one, the one after it idle again.
            late = peer(9, (HOST, observer.port))
            await late.start()
            servers.append(late)
            await settle(servers)
            assert await full_rounds(servers) == 0

            # An incarnation change (a refutation gossiped by peer-1).
            servers[1].table.refute()
            await servers[1].membership.broadcast()
            assert await full_rounds([observer]) == 1
            await settle(servers)

            # An eviction.
            gone = servers.pop()
            await gone.close()
            observer.table.confirm_dead(gone.address)
            observer._ring_changed(MergeOutcome(evicted=[gone.address]))
            await observer.membership.broadcast(exclude={gone.address})
            assert await full_rounds([observer]) == 1
            await settle(servers)
            assert await full_rounds(servers) == 0
        finally:
            await close(*servers)

    run(scenario())


def test_an_unreachable_digest_target_is_not_a_clean_round():
    async def scenario():
        servers = await loaded_ring()
        down = servers.pop()
        try:
            # Something to ask the others about, and one of them is gone
            # (nobody has noticed: no failure detector here).
            await down.close()
            for server in servers:
                server.placement._repaired = None
            failures = [
                s.metrics.counter("repair.push.peer_failures") for s in servers
            ]
            for _ in range(2):
                before = [counter.total() for counter in failures]
                for server in servers:
                    await server.placement.repair_round()
                after = [counter.total() for counter in failures]
                # Whoever has a copy to place on the dead peer asks it
                # again every round: its silence never counted as clean.
                assert any(b > a for a, b in zip(before, after))
                assert [b > a for a, b in zip(before, after)] == [
                    s.placement._repaired is None for s in servers
                ]
        finally:
            await close(*servers)

    run(scenario())


# -- request spans -------------------------------------------------------------


def test_untraced_and_sampled_requests_leave_the_same_kind_of_flight_entry():
    async def scenario():
        (server,) = await ring(1)
        try:
            payload = (5, IntRange(10, 19), "R", "value")
            await wire.call(HOST, server.port, "match-request", payload)
            await wire.call(
                HOST, server.port, "match-request", payload,
                trace={"id": "t-1", "span": "client-span", "sampled": True},
            )
            plain, sampled = server.flight.recent(2)
        finally:
            await close(server)
        keys = list(SpanFragment("s", "n").to_dict())
        for entry in (plain, sampled):
            assert list(entry) == ["type", *keys]
            assert entry["type"] == "span" and entry["name"] == "serve:match-request"
            assert entry["node"] == "peer-0"
            assert entry["attrs"] == {
                "kind": "match-request", "inflight": 1, "outcome": "ok",
            }
            assert entry["end_wall_ms"] >= entry["start_wall_ms"] > 0
            assert re.fullmatch(r"frag-peer-0-\d+", entry["span_id"])
            # What the stitcher rebuilds from it is a well-formed fragment.
            assert SpanFragment.from_dict(entry).duration_ms >= 0.0
        assert plain["span_id"] != sampled["span_id"]
        assert (plain["trace_id"], plain["parent_span_id"]) == (None, None)
        assert (sampled["trace_id"], sampled["parent_span_id"]) == ("t-1", "client-span")

    run(scenario())
