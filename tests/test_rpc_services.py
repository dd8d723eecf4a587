"""The membership and placement services of a live peer, with no socket.

Each service is built over its table or store with a fake clock and a
scripted ``send`` that logs every request and answers from a rule; a test
drives one detector tick, one handler call or one repair round and reads
what was sent.  No sockets, no sleeps.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.matcher import matcher_by_name
from repro.db.partition import PartitionDescriptor
from repro.errors import PeerUnavailableError
from repro.obs.distributed import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.ranges.interval import IntRange
from repro.rpc.peer import PeerLogic
from repro.rpc.placement import PlacementService
from repro.rpc.swim import ALIVE, DEAD, SUSPECT, MembershipService, MembershipTable
from repro.storage.store import NoEviction, PeerStore

HOST = "127.0.0.1"


class Script:
    """A scripted ``send``: logs ``(address, kind, payload)`` and answers
    with ``rule(address, kind, payload)``, raising it if an exception."""

    def __init__(self, rule) -> None:
        self.rule = rule
        self.calls: list[tuple] = []

    async def __call__(self, address, kind, payload=None, *, timeout_ms=5_000.0):
        self.calls.append((address, kind, payload))
        reply = self.rule(address, kind, payload)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def sent(self, kind: str) -> list[str]:
        return sorted(address for address, sent_kind, _ in self.calls if sent_kind == kind)


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=5.0))


# -- membership ----------------------------------------------------------------


class Ring:
    """Peer "a"'s detector over a three-member table; "b" is silent."""

    def __init__(self) -> None:
        self.table = MembershipTable("a", HOST, 1000)
        self.table.add("b", HOST, 1001)
        self.table.add("c", HOST, 1002)
        self.clock = Clock()
        self.send = Script(self.answer)
        self.changes: list = []
        self.persisted: list[int] = []
        self.spawned: list = []
        self.metrics = MetricsRegistry()
        self.service = MembershipService(
            self.table,
            send=self.send,
            clock=self.clock,
            spawn=lambda coroutine: self.spawned.append(asyncio.ensure_future(coroutine)),
            on_ring_change=self.changes.append,
            persist=lambda: self.persisted.append(self.table.incarnation),
            health=lambda: {},
            metrics=self.metrics,
            flight=FlightRecorder("a"),
            interval_ms=100.0,
        )

    @staticmethod
    def answer(address, kind, payload):
        if address == "b":
            return PeerUnavailableError(2)
        if kind == "swim-ping":
            return {"epoch": 0, "members": {}}
        if kind == "ping-req":
            return False  # the proxy could not reach the target either
        return True

    async def suspect_b(self) -> None:
        # The round-robin reaches every live member within two ticks.
        for _ in range(2):
            await self.service.tick()
            if self.table.state_of("b") == SUSPECT:
                return


def test_a_silent_member_is_suspected_and_every_other_member_told():
    async def scenario():
        ring = Ring()
        await ring.suspect_b()
        assert ring.table.state_of("b") == SUSPECT
        assert ring.send.sent("ping-req") == ["c"]
        # The accused is told too, so a slow peer can refute.
        assert ring.send.sent("suspect") == ["b", "c"]
        assert ring.changes == []  # a suspect stays in the ring

    run(scenario())


def test_an_expired_suspicion_evicts_once_and_only_survivors_hear_of_it():
    async def scenario():
        ring = Ring()
        await ring.suspect_b()
        ring.send.calls.clear()
        ring.clock.now += ring.service.suspect_timeout_ms
        await ring.service.tick()
        assert ring.table.state_of("b") == DEAD
        assert [change.evicted for change in ring.changes] == [["b"]]
        assert ring.send.sent("member-update") == ["c"]
        await ring.service.tick()
        assert len(ring.changes) == 1

    run(scenario())


def test_an_accusation_against_self_is_refuted_and_persisted_once():
    async def scenario():
        ring = Ring()
        suspect = ring.service.handlers["suspect"]
        assert suspect({"epoch": 0, "members": {"a": [HOST, 1000, SUSPECT, 0]}})
        assert (ring.table.state_of("a"), ring.table.incarnation) == (ALIVE, 1)
        # A stale accusation, below the new incarnation, changes nothing.
        assert not suspect({"epoch": 0, "members": {"a": [HOST, 1000, DEAD, 0]}})
        assert ring.persisted == [1]
        await asyncio.gather(*ring.spawned)
        # The refutation is announced to everyone; "b" missed it.
        assert ring.send.sent("member-update") == ["b", "c"]
        assert ring.metrics.counter("member.update_failed").total() == 1

    run(scenario())


# -- placement -----------------------------------------------------------------


def desc(start: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(start, start + 9))


class Holder:
    """Peer 1 ("a") holding two entries that belong on peers 1 and 2."""

    def __init__(self, rule) -> None:
        logic = PeerLogic(1, PeerStore(1, NoEviction()), matcher_by_name("jaccard"))
        for identifier in (10, 20):
            logic.store.store(identifier, desc(identifier), None, primary=True)
        self.send = Script(rule)
        self.metrics = MetricsRegistry()
        self.service = PlacementService(
            logic,
            MembershipTable("a", HOST, 1000),
            owners=lambda identifier: [1, 2],
            address_of={1: "a", 2: "b"}.__getitem__,
            send=self.send,
            clock=Clock(),
            metrics=self.metrics,
            flight=FlightRecorder("a"),
        )

    def counted(self, name: str) -> float:
        return self.metrics.counter(name).total()


def test_a_digest_answer_pushes_only_the_missing_copy():
    def rule(address, kind, payload):
        return [True, False] if kind == "has-entries" else True

    holder = Holder(rule)
    assert run(holder.service.repair_round()) == 1
    pushes = [payload for _, kind, payload in holder.send.calls if kind == "repair-push"]
    assert [(identifier, descriptor) for identifier, descriptor, *_ in pushes] == [
        (20, desc(20))
    ]
    assert holder.counted("repair.push.skipped") == 1
    assert holder.service._repaired is None  # a copy was missing: look again


@pytest.mark.parametrize(
    "reply", [PeerUnavailableError(2), [True], [True, False, True], {"0": True}, None],
    ids=["unreachable", "short", "long", "not-a-list", "none"],
)
def test_a_digest_target_that_does_not_answer_in_full_is_not_a_clean_round(reply):
    holder = Holder(lambda address, kind, payload: reply)
    for rounds in (1, 2):
        assert run(holder.service.repair_round()) == 0
        assert holder.send.sent("repair-push") == []
        assert holder.service._repaired is None
        assert holder.counted("repair.push.peer_failures") == rounds
        # ...so the next round asks again instead of idling.
        assert holder.counted("repair.push.rounds") == rounds
    assert holder.counted("repair.push.idle_rounds") == 0


def stray(rule) -> Holder:
    """Peer 1 holding entry 20, which its own ring places on 2 and 3."""
    holder = Holder(rule)
    holder.service.owners = lambda identifier: [1, 2] if identifier == 10 else [2, 3]
    holder.service.address_of = {1: "a", 2: "b", 3: "c"}.__getitem__
    return holder


def held(holder: Holder) -> list[int]:
    return [identifier for identifier, _ in holder.service.store.entries()]


def test_a_repair_round_sheds_a_copy_the_ring_does_not_place_here():
    # Entry 20 reached peer 1 from a peer whose mirror placed it here, and
    # no join follows to re-place the store.  The round confirms both
    # targets hold it, then drops it.
    holder = stray(lambda address, kind, payload: [True] * len(payload))
    assert run(holder.service.repair_round()) == 0
    assert holder.send.sent("has-entries") == ["b", "c"]
    assert holder.send.sent("repair-push") == []
    assert held(holder) == [10]


@pytest.mark.parametrize(
    "c_answers",
    [
        {"has-entries": PeerUnavailableError(3)},
        {"has-entries": [False], "repair-push": PeerUnavailableError(3)},
    ],
    ids=["digest-unanswered", "push-raises"],
)
def test_a_stray_copy_stays_until_every_target_confirms_it(c_answers):
    # "b" holds entry 20 but "c" never confirms it: peer 1's copy may be
    # the only other one, so it is kept and the next round asks again.
    def rule(address, kind, payload):
        if address == "c":
            return c_answers[kind]
        return [True] * len(payload) if kind == "has-entries" else True

    holder = stray(rule)
    for _ in range(2):
        assert run(holder.service.repair_round()) == 0
        assert held(holder) == [10, 20]
        assert holder.service._repaired is None
    assert holder.counted("repair.push.idle_rounds") == 0
    # Once "c" answers the push, the copy is shed -- also when another
    # holder's push got there first and this one stored nothing new.
    c_answers.update({"has-entries": [False], "repair-push": False})
    assert run(holder.service.repair_round()) == 0
    assert held(holder) == [10]
