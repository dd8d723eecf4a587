"""Replica placement on a live peer: roles, repair rounds, hand-off.

A server knows only its own store, so it hands the shared planner of
:mod:`repro.core.placement` a holder map with itself as the sole holder
and the replica sets of its ring mirror.  :class:`PlacementService`
executes that plan: role flags at once, copies through a digest
(``has-entries``) and pushes of only the missing keys (``repair-push``),
drops once every target of the key holds it.  It also decides what
follows a move of the ring, runs the periodic repair rounds, reconciles a restarted
store with the ring, and serves the placement request kinds.

Like the membership service it sees no socket: other members are reached
through a ``send`` coroutine, time is a ``clock()``, and the ring mirror
is the owner's, read through ``owners(identifier)`` and ``address_of``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import TYPE_CHECKING, Any, Awaitable, Callable

from repro.core.placement import Action, Key, plan_placement
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.rpc import wire
from repro.rpc.swim import ALIVE, SUSPECT, MembershipTable, MergeOutcome, Send

if TYPE_CHECKING:
    from repro.obs.distributed import FlightRecorder
    from repro.obs.registry import MetricsRegistry
    from repro.rpc.peer import PeerLogic

__all__ = ["PlacementService"]

logger = get_logger("rpc.placement")


class PlacementService:
    """The placement executor of one peer, over its store and table."""

    def __init__(
        self,
        logic: PeerLogic,
        table: MembershipTable,
        *,
        owners: Callable[[int], list[int]],
        address_of: Callable[[int], str],
        send: Send,
        clock: Callable[[], float],
        metrics: MetricsRegistry,
        flight: FlightRecorder,
        interval_ms: float = 0.0,
    ) -> None:
        self.logic = logic
        self.store = logic.store
        self.node_id = logic.node_id
        self.table = table
        self.owners = owners
        self.address_of = address_of
        self.send = send
        self.clock = clock
        self.metrics = metrics
        self.flight = flight
        #: 0 disables the periodic rounds.
        self.interval_ms = interval_ms
        #: Set to run a repair round now instead of at the interval.
        self.repair_now = asyncio.Event()
        #: Replica debt after the last round: copies found missing minus
        #: copies pushed (what telemetry and the SWIM health piggyback
        #: report as ``pending_repair``).
        self.pending = 0
        #: ``(store mutations, member records)`` as the last repair round
        #: that found nothing to do saw them; None after any other round.
        self._repaired: tuple | None = None
        #: Clock ms of the first un-healed eviction this peer knows of;
        #: cleared (into ``repair.heal_ms``) by the first clean round.
        self._evicted_at: float | None = None
        self.handlers = {
            "has-entries": self._has_entries,
            "repair-push": self._repair_push,
            "entries": self._entries,
        }

    def _count(self, name: str, help: str, amount: float = 1.0) -> None:
        self.metrics.counter(name, help=help).inc(amount)

    def ring_changed(self, change: MergeOutcome) -> Awaitable[int] | None:
        """What follows a move of the ring.

        Role flags need no I/O, so they follow at once, whichever way the
        ring moved and whether or not a repair loop runs.  An eviction or
        a join arms a repair round; a join or this peer's own departure
        also re-places the store, returned for the caller to run.
        """
        self.settle_roles()
        if change.evicted and self._evicted_at is None:
            self._evicted_at = self.clock()
        if change.evicted or change.joined:
            self.repair_now.set()
        if change.joined or change.departed:
            return self.rebalance()
        return None

    def settle_roles(self) -> list[Action]:
        """Plan this peer's entries against the ring mirror, apply the
        plan's role flags, and return the plan."""
        holders = {
            (identifier, entry.descriptor): {self.node_id: entry.primary}
            for identifier, entry in self.store.entries()
        }
        plan = list(plan_placement(holders, self.owners))
        for action in plan:
            if action.kind == "set_role":
                self.store.set_primary(action.identifier, action.descriptor, action.primary)
        return plan

    async def _converge(self) -> tuple[int, int, set[Key]]:
        """Execute the placement plan for this peer's entries.

        Each remote target of a ``copy`` is digested for the keys it should
        hold (``has-entries``) and sent only the missing ones
        (``repair-push``).  An entry this peer no longer replicates is
        dropped once every target of its key confirmed holding it, by its
        digest or by answering the push; until then this copy may be the
        last.  A digest reply that is missing, or not one flag per key,
        confirms nothing.  Returns ``(created, missing, unconfirmed keys)``.
        """
        partitions = {
            (identifier, entry.descriptor): entry.partition
            for identifier, entry in self.store.entries()
        }
        wanted: dict[str, list[Action]] = {}
        drops: list[Action] = []
        for action in self.settle_roles():
            if action.kind == "copy":
                wanted.setdefault(self.address_of(action.node), []).append(action)
            elif action.kind == "drop":
                drops.append(action)
        created = missing = 0
        unconfirmed: set[Key] = set()
        for address, copies in wanted.items():
            digest = [(copy.identifier, copy.descriptor) for copy in copies]
            try:
                present = await self.send(address, "has-entries", digest)
            except ReproError:
                present = None
            if not isinstance(present, list) or len(present) != len(digest):
                self._count(
                    "repair.push.peer_failures", "repair digests whose target never answered"
                )
                unconfirmed.update(digest)
                continue
            skipped = float(sum(map(bool, present)))
            if skipped:
                self._count(
                    "repair.push.skipped", "copies the digest showed already in place", skipped
                )
            for copy, key, has in zip(copies, digest, present):
                if has:
                    continue
                missing += 1
                try:
                    stored = await self.send(
                        address, "repair-push", (*key, partitions[key], copy.primary)
                    )
                except ReproError:
                    self._count(
                        "repair.push.failures", "repair pushes whose target never answered"
                    )
                    unconfirmed.add(key)
                    continue
                if stored:
                    created += 1
                    self._count("repair.push.copies", "missing copies re-replicated by this peer")
        for action in drops:
            key = (action.identifier, action.descriptor)
            # Re-checked: the ring may have moved during the awaits above.
            if key not in unconfirmed and self.node_id not in self.owners(action.identifier):
                self.store.remove(action.identifier, action.descriptor, via="handoff")
        return created, missing, unconfirmed

    async def repair_round(self) -> int:
        """One anti-entropy pass from this peer's entries outward: the
        executor plus the round's books.  Returns the copies created.
        (It sheds too: a peer whose mirror is behind or ahead of ours may
        push a copy our ring does not place here, and no join re-places it.)

        A round is linear in the store, every interval, on every peer, so
        it is skipped while neither this peer's entries nor the member
        table have changed since a round that reached every target and
        found every copy in place.  (A target that lost an entry by itself
        — only LRU eviction does that — is not re-filled until something
        else moves.)
        """
        inputs = (self.store.mutations, self.table.records())
        if inputs == self._repaired:
            self._count(
                "repair.push.idle_rounds",
                "anti-entropy rounds skipped: nothing changed since a round "
                "that found every copy in place",
            )
            return 0
        started = self.clock()
        created, missing, unconfirmed = await self._converge()
        # An unanswered digest is not a clean one.
        self._repaired = None if missing or unconfirmed else inputs
        self._count("repair.push.rounds", "anti-entropy rounds run")
        self.metrics.histogram(
            "repair.push.round_ms", help="wall time of one repair round"
        ).observe(self.clock() - started)
        self.pending = max(0, missing - created)
        self.metrics.gauge(
            "repair.pending", help="missing copies left after the last round"
        ).set(self.pending)
        if missing == 0 and self._evicted_at is not None:
            self.metrics.histogram(
                "repair.heal_ms", help="eviction-to-fully-replicated latency"
            ).observe(self.clock() - self._evicted_at)
            self._evicted_at = None
        if created or missing:
            self.flight.record_event("repair-round", created=created, missing=missing)
            logger.info(
                "peer %s: repair round pushed %d/%d missing copies",
                self.table.self_address, created, missing,
            )
        return created

    async def rebalance(self) -> int:
        """Re-place local entries against the current ring: the executor,
        run at once on joins, leaves and restarts.  Returns the copies
        pushed."""
        return (await self._converge())[0]

    async def run(self) -> None:
        """A repair round every ``interval_ms``, or as soon as one is
        armed, until cancelled; a round that created copies runs again at
        once (the digest makes repeat rounds cheap)."""
        while True:
            try:
                await asyncio.wait_for(self.repair_now.wait(), self.interval_ms / 1000.0)
            except asyncio.TimeoutError:
                pass
            self.repair_now.clear()
            try:
                created = await self.repair_round()
            except Exception:  # noqa: BLE001 - repair must survive
                logger.exception("repair round failed on %s", self.table.self_address)
                continue
            if created:
                self.repair_now.set()

    async def reconcile(self) -> None:
        """One recovery pass of a restored store against the adopted ring.

        Entries may have moved off this peer while it was down (shed them,
        via :meth:`rebalance`) and writes may have landed elsewhere (page
        every live member's ``entries`` and keep what the current replica
        sets place here).  Best-effort: repair owns convergence.
        """
        try:
            shed_before = self.store.partition_count
            await self.rebalance()
            shed = max(0, shed_before - self.store.partition_count)
            pulled = 0
            for address in self.table.peers(ALIVE, SUSPECT):
                try:
                    records = await wire.fetch_entries(
                        lambda page: self.send(address, "entries", page)
                    )
                except ReproError:
                    continue  # unreachable peer; repair owns convergence
                for identifier, descriptor, partition, _primary in records:
                    identifier = int(identifier)
                    targets = self.owners(identifier)
                    if self.node_id in targets and not self.logic.holds(identifier, descriptor):
                        self.store.store(
                            identifier, descriptor, partition,
                            primary=targets[0] == self.node_id, via="reconcile",
                        )
                        pulled += 1
            self._count("reconcile.shed", "restored entries shed because ownership moved away", shed)
            self._count("reconcile.pulled", "entries pulled from the ring after a restart", pulled)
            self._count("reconcile.rounds", "restart reconciliation rounds run")
            if shed or pulled:
                logger.info(
                    "peer %s: reconciled after restart (shed %d, pulled %d)",
                    self.table.self_address, shed, pulled,
                )
            self.repair_now.set()
        except Exception:  # noqa: BLE001 - reconciliation is best-effort
            logger.exception("restart reconciliation failed on %s", self.table.self_address)

    # -- request handlers ----------------------------------------------------

    def _has_entries(self, payload: Any) -> list[bool]:
        return [self.logic.holds(int(identifier), descriptor) for identifier, descriptor in payload]

    def _repair_push(self, payload: Any) -> bool:
        identifier, descriptor, partition, primary = payload
        self._count("repair.push.received", "repair pushes served")
        return self.store.store(
            identifier, descriptor, partition, primary=primary, via="repair-push"
        )

    def _entries(self, payload: Any) -> dict:
        """One page of the store, ``{"offset", "limit"} -> {"total",
        "entries"}``, so the reply frame stays bounded whatever the store
        holds; no payload means the first page at the default size."""
        body = payload if isinstance(payload, dict) else {}
        offset = max(0, int(body.get("offset", 0)))
        limit = max(1, int(body.get("limit", wire.ENTRIES_PAGE_SIZE)))
        page = itertools.islice(self.store.entries(), offset, offset + limit)
        return {
            "total": self.store.partition_count,
            "entries": [
                (identifier, entry.descriptor, entry.partition, entry.primary)
                for identifier, entry in page
            ],
        }
