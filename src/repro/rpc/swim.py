"""SWIM-style membership: alive/suspect/dead states with incarnations.

The socket cluster of :mod:`repro.rpc.server` mirrors a full member map on
every peer.  Before this module the map only ever *grew* through joins and
shrank through graceful leaves — an abruptly killed peer stayed in every
mirror forever, and only a client tripping over its refused connections
ever noticed.  :class:`MembershipTable` gives the map the three-state
lifecycle of the SWIM failure detector (Das et al., DSN 2002):

- **alive** — the peer answers pings (directly or through a proxy);
- **suspect** — a ping *and* the indirect ping-req probes all failed;
  the peer stays in the ring (lookups still try it and fail over), but
  the suspicion gossips so the accused can refute it;
- **dead** — the suspicion aged out un-refuted; the peer is evicted from
  the ring and kept as a *tombstone* so a lagging gossip cannot
  resurrect it by accident.

Every record carries an **incarnation number** that only the member it
describes may increment.  Records merge by the classic SWIM precedence:

- a higher incarnation always wins;
- at equal incarnations, ``dead`` overrides ``suspect`` overrides
  ``alive``.

So a suspected peer refutes by re-announcing itself alive at a *higher*
incarnation — and nothing else can.  A tombstoned peer that was merely
paused (``SIGSTOP``) rejoins the same way after ``SIGCONT``: it learns of
its own death from any ping exchange and re-announces at ``dead
incarnation + 1``.

The table is transport-free and uses a caller-supplied clock, so the
state machine is deterministic and unit-testable without sockets.  The
epoch counter of the original design survives as a *freshness hint* for
broadcasts (merging keeps ``max(local, remote)`` and bumps on local
change); correctness no longer depends on it, the per-member merge rules
converge regardless of delivery order.

:class:`MembershipService` is the detector around one table — the tick,
direct and indirect pings, suspicion, gossip fan-out and the membership
request handlers — and is transport-free too: it reaches other members
through a ``send`` coroutine and reads time from a ``clock``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Iterable

from repro.errors import ReproError
from repro.obs.log import get_logger

if TYPE_CHECKING:
    from repro.obs.distributed import FlightRecorder
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "Member",
    "MergeOutcome",
    "MembershipTable",
    "MembershipService",
]

logger = get_logger("rpc.swim")

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: State precedence at equal incarnations: dead > suspect > alive.
_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}

#: Every this-many SWIM ticks, probe a tombstoned member instead of a
#: live one.  A dead peer that was merely paused (SIGSTOP) answers the
#: probe after SIGCONT, learns of its own death from the piggybacked
#: table, refutes, and rejoins — the same path heals a two-sided
#: partition after both sides evicted each other.
RESURRECTION_PROBE_PERIOD = 4

#: ``await send(address, kind, payload, timeout_ms=...)``: one request to
#: a member, its reply, or a :class:`~repro.errors.ReproError`.
Send = Callable[..., Awaitable[Any]]


@dataclass
class Member:
    """One membership record as gossiped between peers."""

    host: str
    port: int
    state: str = ALIVE
    incarnation: int = 0
    #: Local wall-clock (ms) when *this* table first saw the member
    #: suspect — never gossiped, each peer ages suspicions on its own
    #: clock so the detector converges even if the original suspector
    #: dies before confirming.
    suspected_at: float | None = None

    def record(self) -> list:
        """The gossip form: ``[host, port, state, incarnation]``."""
        return [self.host, self.port, self.state, self.incarnation]


@dataclass
class MergeOutcome:
    """What one :meth:`MembershipTable.merge` changed."""

    #: Any record changed (worth re-gossiping / re-deriving state from).
    changed: bool = False
    #: Addresses newly alive that were previously unknown or dead — the
    #: ring gained nodes (a join or a resurrection).
    joined: list[str] = field(default_factory=list)
    #: Addresses newly dead that were previously in the ring.
    evicted: list[str] = field(default_factory=list)
    #: The remote view called *us* suspect or dead; the caller must
    #: refute (we already bumped our incarnation past the accusation).
    refuted: bool = False
    #: This peer left the ring on purpose (a graceful leave).
    departed: bool = False

    @property
    def ring_changed(self) -> bool:
        return bool(self.joined or self.evicted or self.departed)


class MembershipTable:
    """The SWIM member map one peer mirrors: records, epoch, merge rules."""

    def __init__(self, self_address: str, host: str, port: int) -> None:
        self.self_address = self_address
        self.epoch = 0
        self._members: dict[str, Member] = {
            self_address: Member(host, port)
        }

    # -- views -----------------------------------------------------------

    @property
    def members(self) -> dict[str, Member]:
        """Every record, tombstones included (do not mutate)."""
        return self._members

    @property
    def incarnation(self) -> int:
        """This peer's own incarnation number."""
        return self._members[self.self_address].incarnation

    def get(self, address: str) -> Member | None:
        return self._members.get(address)

    def state_of(self, address: str) -> str | None:
        member = self._members.get(address)
        return member.state if member is not None else None

    def endpoints(self) -> dict[str, tuple[str, int]]:
        """``address -> (host, port)`` for every non-dead member — the
        view the ring is built from (suspects stay routable)."""
        return {
            address: (member.host, member.port)
            for address, member in self._members.items()
            if member.state != DEAD
        }

    def addresses(self, *states: str) -> list[str]:
        """Member addresses in the given states (all states if none)."""
        wanted = set(states) if states else set(_RANK)
        return [
            address
            for address, member in self._members.items()
            if member.state in wanted
        ]

    def peers(self, *states: str) -> list[str]:
        """Like :meth:`addresses` but never includes this peer itself."""
        return [
            address
            for address in self.addresses(*states)
            if address != self.self_address
        ]

    # -- local transitions ----------------------------------------------

    def set_endpoint(self, host: str, port: int) -> None:
        """Record this peer's bound endpoint (port 0 until bound)."""
        me = self._members[self.self_address]
        me.host = host
        me.port = port

    def add(self, address: str, host: str, port: int) -> bool:
        """Admit a joiner as alive (used by the ``join`` RPC).

        A re-join of a tombstoned address comes back at an incarnation
        past its death, so stale dead records cannot shadow it.
        """
        existing = self._members.get(address)
        incarnation = 0
        if existing is not None:
            if existing.state != DEAD:
                # Already a live member: refresh the endpoint only.
                existing.host, existing.port = host, port
                return False
            incarnation = existing.incarnation + 1
        self._members[address] = Member(
            host, port, state=ALIVE, incarnation=incarnation
        )
        self.epoch += 1
        return True

    def remove(self, address: str) -> None:
        """Forget a member entirely (graceful leave; no tombstone)."""
        if address in self._members and address != self.self_address:
            del self._members[address]
            self.epoch += 1

    def suspect(self, address: str, now_ms: float) -> bool:
        """Mark a member suspect at its current incarnation."""
        member = self._members.get(address)
        if member is None or address == self.self_address:
            return False
        if member.state != ALIVE:
            return False
        member.state = SUSPECT
        member.suspected_at = now_ms
        self.epoch += 1
        return True

    def confirm_alive(self, address: str) -> bool:
        """A direct or proxied ping answered: clear a local suspicion.

        Only honoured for suspicions this table raised itself — gossiped
        refutations must come from the accused at a higher incarnation.
        """
        member = self._members.get(address)
        if member is None or member.state != SUSPECT:
            return False
        member.state = ALIVE
        member.suspected_at = None
        self.epoch += 1
        return True

    def confirm_dead(self, address: str) -> bool:
        """Evict a member (tombstoned at its current incarnation)."""
        member = self._members.get(address)
        if member is None or address == self.self_address:
            return False
        if member.state == DEAD:
            return False
        member.state = DEAD
        member.suspected_at = None
        self.epoch += 1
        return True

    def expired_suspects(self, now_ms: float, timeout_ms: float) -> list[str]:
        """Suspects whose suspicion has aged past ``timeout_ms``."""
        return [
            address
            for address, member in self._members.items()
            if member.state == SUSPECT
            and member.suspected_at is not None
            and now_ms - member.suspected_at >= timeout_ms
        ]

    def depart(self) -> None:
        """Declare *this* peer dead (graceful leave).

        A leave is a self-announced death: the record gossips as dead at
        our current incarnation, every mirror tombstones us, and — since
        we are gone on purpose — nobody ever refutes it.
        """
        me = self._members[self.self_address]
        me.state = DEAD
        me.suspected_at = None
        self.epoch += 1

    def set_incarnation(self, incarnation: int) -> None:
        """Resume this peer's incarnation from persisted state.

        A durable peer restarting from its ``--data-dir`` comes back at
        ``persisted + 1`` — past any tombstone the cluster holds for its
        previous life, since only the member itself ever bumps its
        incarnation and death freezes it.  Called before the rejoin.
        """
        me = self._members[self.self_address]
        if incarnation > me.incarnation:
            me.incarnation = incarnation
            self.epoch += 1

    def reassert_self(self, incarnation: int) -> bool:
        """Force our own record alive at (at least) ``incarnation``.

        :meth:`adopt` takes the bootstrap peer's record of this address
        when it outranks ours, and that record may be a tombstone from a
        previous life.  Restore the record the rejoin announced; returns
        True when anything changed.
        """
        me = self._members[self.self_address]
        if me.state == ALIVE and me.incarnation >= incarnation:
            return False
        if me.state != ALIVE:
            # Beat the adopted tombstone/suspicion outright.
            incarnation = max(incarnation, me.incarnation + 1)
        me.incarnation = max(me.incarnation, incarnation)
        me.state = ALIVE
        me.suspected_at = None
        self.epoch += 1
        return True

    def refute(self) -> int:
        """Re-announce this peer alive past any accusation it has seen.

        Returns the new incarnation (gossip it; only we may bump it).
        """
        me = self._members[self.self_address]
        me.incarnation += 1
        me.state = ALIVE
        me.suspected_at = None
        self.epoch += 1
        return me.incarnation

    # -- gossip ----------------------------------------------------------

    def payload(self) -> dict:
        """The peer-to-peer gossip form of the whole table."""
        return {
            "epoch": self.epoch,
            "members": {
                address: member.record()
                for address, member in self._members.items()
            },
        }

    def states(self) -> dict[str, list]:
        """``address -> [state, incarnation]`` of every record, tombstones
        included: what ``hello`` and ``telemetry`` report."""
        return {
            address: [member.state, member.incarnation]
            for address, member in self._members.items()
        }

    def records(self) -> tuple:
        """Every record in gossip form, as one comparable value: two are
        equal exactly when no member was added, dropped or re-addressed
        and none changed state or incarnation in between."""
        return tuple(
            (address, *member.record())
            for address, member in self._members.items()
        )

    def adopt(self, payload: dict, now_ms: float) -> None:
        """Fold a join reply into this mirror (a joiner bootstrapping).

        The reply is a snapshot the bootstrap peer took at some point of
        the join, and it races the ``member-update`` broadcasts of later
        joins: a joiner may already have merged news the snapshot
        predates.  So adoption is a merge — an unknown member is added,
        a known one only moves up the ``(incarnation, state)``
        precedence, and nothing already known is forgotten.  Unlike
        :meth:`merge` our own record follows the same rule (the reply
        may carry it at a later incarnation, or as a tombstone of a
        previous life): :meth:`reassert_self` settles it afterwards.
        """
        for address, record in payload["members"].items():
            host, port, state, incarnation = record
            state, incarnation = str(state), int(incarnation)
            if state not in _RANK:
                continue  # unknown state from a future version; skip
            local = self._members.get(address)
            if local is not None and (incarnation, _RANK[state]) <= (
                local.incarnation, _RANK[local.state]
            ):
                continue  # we already know as much, or better
            self._members[address] = Member(
                str(host), int(port), state=state, incarnation=incarnation,
                suspected_at=now_ms if state == SUSPECT else None,
            )
        self.epoch = max(self.epoch, int(payload["epoch"]))

    def merge(self, payload: dict, now_ms: float) -> MergeOutcome:
        """Fold a remote table (or piggybacked gossip) into this one."""
        outcome = MergeOutcome()
        for address, record in payload.get("members", {}).items():
            host, port, state, incarnation = record
            state = str(state)
            incarnation = int(incarnation)
            if state not in _RANK:
                continue  # unknown state from a future version; skip
            if address == self.self_address:
                if state != ALIVE and incarnation >= self.incarnation:
                    # Someone thinks we are suspect/dead: refute with an
                    # incarnation past the accusation.
                    me = self._members[self.self_address]
                    me.incarnation = incarnation
                    self.refute()
                    outcome.refuted = True
                    outcome.changed = True
                continue
            local = self._members.get(address)
            if local is None:
                self._members[address] = Member(
                    str(host), int(port), state=state,
                    incarnation=incarnation,
                    suspected_at=now_ms if state == SUSPECT else None,
                )
                outcome.changed = True
                if state != DEAD:
                    outcome.joined.append(address)
                continue
            if (incarnation, _RANK[state]) <= (
                local.incarnation, _RANK[local.state]
            ):
                continue  # stale or identical news
            was_dead = local.state == DEAD
            local.host, local.port = str(host), int(port)
            local.incarnation = incarnation
            if state == SUSPECT and local.state != SUSPECT:
                # Age gossiped suspicions on our own clock, so we too
                # will confirm death if the refutation never comes.
                local.suspected_at = now_ms
            elif state != SUSPECT:
                local.suspected_at = None
            if state == DEAD and not was_dead:
                outcome.evicted.append(address)
            elif state != DEAD and was_dead:
                outcome.joined.append(address)
            local.state = state
            outcome.changed = True
        if outcome.changed:
            self.epoch += 1
        self.epoch = max(self.epoch, int(payload.get("epoch", 0)))
        return outcome


class MembershipService:
    """The SWIM failure detector and membership handlers of one peer.

    It sees no socket: ``send`` is its only way to other members and
    ``clock()`` (ms) its only time.  Every move of the ring — a join this
    peer admits, news merged from any gossip, an eviction it confirms, its
    own departure — is reported to ``on_ring_change(outcome)``; what that
    returns, when not None, is the follow-up the owner started (a
    re-placement of the store), which a handler awaits before it answers.
    ``spawn`` runs fire-and-forget gossip, ``persist()`` saves a bumped
    incarnation, ``health()`` is the sample piggybacked on ping replies.
    """

    def __init__(
        self,
        table: MembershipTable,
        *,
        send: Send,
        clock: Callable[[], float],
        spawn: Callable[[Awaitable], Any],
        on_ring_change: Callable[[MergeOutcome], Awaitable | None],
        persist: Callable[[], None],
        health: Callable[[], dict],
        metrics: MetricsRegistry,
        flight: FlightRecorder,
        interval_ms: float = 0.0,
        suspect_timeout_ms: float | None = None,
        proxies: int = 2,
    ) -> None:
        self.table = table
        self.send = send
        self.clock = clock
        self.spawn = spawn
        self.on_ring_change = on_ring_change
        self.persist = persist
        self.health = health
        self.metrics = metrics
        self.flight = flight
        #: 0 disables the detector: membership then only changes on
        #: join and leave.
        self.interval_ms = interval_ms
        self.suspect_timeout_ms = (
            suspect_timeout_ms if suspect_timeout_ms is not None else 3.0 * interval_ms
        )
        self.proxies = proxies
        #: Patience of one ping: a tick, clamped to [200 ms, 1 s].
        self.ping_timeout_ms = max(200.0, min(interval_ms, 1_000.0))
        #: Peers whose last member-update delivery failed; the tick pings
        #: them first (the ping piggybacks the full table, which *is* the
        #: re-delivery) and every later broadcast retries.
        self._redeliver: set[str] = set()
        self._rng = random.Random(table.self_address)
        self._ping_queue: list[str] = []
        self._ticks = 0
        #: Serialises the ``join`` requests this peer serves as bootstrap.
        self._joining = asyncio.Lock()
        self.handlers = {
            "join": self._join,
            "member-update": self._member_update,
            "swim-ping": self._swim_ping,
            "ping-req": self._ping_req,
            "suspect": self._suspect,
        }

    def _count(self, name: str, help: str, amount: float = 1.0) -> None:
        self.metrics.counter(name, help=help).inc(amount)

    # -- gossip ------------------------------------------------------------

    async def _fan_out(
        self, targets: Iterable[str], kind: str, payload: Any, **options: Any
    ) -> list:
        """One request to every target at once: the replies in target
        order, None where a target did not answer."""

        async def one(address: str) -> Any:
            try:
                return await self.send(address, kind, payload, **options)
            except ReproError:
                return None

        return list(await asyncio.gather(*(one(address) for address in targets)))

    async def broadcast(self, exclude: Iterable[str] = ()) -> None:
        """Push the whole table to every other non-dead member at once.

        A member that misses it is queued for re-delivery and counted as
        ``member.update_failed``; one that takes it leaves the queue.
        """
        excluded = set(exclude)
        targets = [a for a in self.table.peers(ALIVE, SUSPECT) if a not in excluded]
        replies = await self._fan_out(targets, "member-update", self.table.payload())
        for address, reply in zip(targets, replies):
            if reply is not None:
                self._redeliver.discard(address)
                continue
            self._redeliver.add(address)
            self._count(
                "member.update_failed",
                "member-update deliveries that failed and were queued for re-delivery",
            )
            logger.warning("member-update to %s failed; queued for re-delivery", address)

    def _absorb(self, outcome: MergeOutcome) -> Awaitable | None:
        """React to membership news from any gossip exchange: report a
        moved ring, count what it evicted, announce a refutation."""
        for address in outcome.evicted:
            logger.info(
                "peer %s: learned %s is dead (gossip)", self.table.self_address, address
            )
        if outcome.evicted:
            self._count("swim.evicted", "members learned dead via gossip", len(outcome.evicted))
        if outcome.refuted:
            self._count("swim.refuted", "times this peer refuted an accusation against it")
            logger.info(
                "peer %s: refuted suspicion, incarnation now %d",
                self.table.self_address, self.table.incarnation,
            )
            self.persist()
            self.spawn(self.broadcast())
        return self.on_ring_change(outcome) if outcome.ring_changed else None

    # -- the detector --------------------------------------------------------

    async def run(self) -> None:
        """Tick every ``interval_ms`` until cancelled; a failed tick is
        logged and the next one runs."""
        while True:
            await asyncio.sleep(self.interval_ms / 1000.0)
            try:
                await self.tick()
            except Exception:  # noqa: BLE001 - the detector must survive
                logger.exception("swim tick failed on %s", self.table.self_address)

    async def tick(self) -> None:
        """One period: confirm the suspicions that aged out, then probe
        one member directly, then through proxies, and suspect it (telling
        every member, the accused included, so a slow peer can refute)
        when neither route answers."""
        now = self.clock()
        evicted = self.table.expired_suspects(now, self.suspect_timeout_ms)
        for address in evicted:
            waited = now - self.table.get(address).suspected_at
            self.table.confirm_dead(address)
            self._count("swim.dead", "members this peer confirmed dead")
            self.metrics.histogram(
                "swim.detect_ms", help="suspicion-to-eviction latency"
            ).observe(waited)
            logger.info(
                "peer %s: %s is dead (suspect for %.0f ms), evicting",
                self.table.self_address, address, waited,
            )
        if evicted:
            self.on_ring_change(MergeOutcome(changed=True, evicted=evicted))
            await self.broadcast(exclude=evicted)
        target = self._next_target()
        if target is None:
            return
        reply = await self._ping(target)
        if reply is None and self.table.state_of(target) != DEAD:
            reply = await self._ping_via_proxies(target)
        if reply is not None:
            self._absorb(self.table.merge(reply, self.clock()))
        elif self.table.suspect(target, self.clock()):
            # (A failed probe of a tombstone suspects nobody.)
            self._count("swim.suspected", "members this peer marked suspect")
            self.flight.record_event("swim-suspect", target=target)
            logger.info("peer %s: suspecting %s", self.table.self_address, target)
            accusation = {"epoch": 0, "members": {target: self.table.get(target).record()}}
            await self._fan_out(
                self.table.peers(ALIVE, SUSPECT), "suspect", accusation,
                timeout_ms=self.ping_timeout_ms,
            )

    def _next_target(self) -> str | None:
        """Round-robin over a shuffled member list, SWIM-style.

        Peers with a pending member-update re-delivery go first; every
        :data:`RESURRECTION_PROBE_PERIOD`-th tick probes a tombstone
        instead, so paused peers and healed partitions can rejoin.
        """
        self._ticks += 1
        for address in list(self._redeliver):
            if self.table.state_of(address) in (ALIVE, SUSPECT):
                return address
        if self._ticks % RESURRECTION_PROBE_PERIOD == 0:
            dead = self.table.peers(DEAD)
            if dead:
                return dead[self._rng.randrange(len(dead))]
        candidates = set(self.table.peers(ALIVE, SUSPECT))
        self._ping_queue = [a for a in self._ping_queue if a in candidates]
        if not self._ping_queue:
            self._ping_queue = sorted(candidates)
            self._rng.shuffle(self._ping_queue)
        return self._ping_queue.pop() if self._ping_queue else None

    async def _ping(self, address: str) -> dict | None:
        """Ping a member, piggybacking our table; its table, or None."""
        try:
            reply = await self.send(
                address, "swim-ping", self.table.payload(), timeout_ms=self.ping_timeout_ms
            )
        except ReproError:
            self._count("swim.ping_failures", "direct pings that went unanswered")
            return None
        self._count("swim.pings", "direct pings answered")
        self._redeliver.discard(address)
        if not isinstance(reply, dict):
            return None
        health = reply.get("health")
        if isinstance(health, dict):
            self._count("swim.health_piggybacked", "health samples received on SWIM ping replies")
            for name in ("queue_depth", "pending_repair", "entries"):
                value = health.get(name)
                if isinstance(value, (int, float)):
                    self.metrics.gauge(
                        f"swim.peer_{name}", help=f"last piggybacked {name} per pinged peer"
                    ).set(float(value), peer=address)
        return reply

    async def _ping_via_proxies(self, address: str) -> dict | None:
        """Ask ``proxies`` other alive members to ping ``address`` for us."""
        proxies = [proxy for proxy in self.table.peers(ALIVE) if proxy != address]
        self._rng.shuffle(proxies)
        proxies = proxies[: self.proxies]
        if not proxies:
            return None
        self._count("swim.ping_reqs", "indirect ping-req probes issued", len(proxies))
        request = {"address": address, "timeout_ms": self.ping_timeout_ms}
        replies = await self._fan_out(
            proxies, "ping-req", request, timeout_ms=2.0 * self.ping_timeout_ms
        )
        return next((reply for reply in replies if isinstance(reply, dict)), None)

    # -- request handlers ----------------------------------------------------

    async def _join(self, payload: Any) -> dict:
        """Admit a joiner, as its bootstrap peer, one join at a time.

        A whole cluster may be knocking at once, and a hand-off planned
        against one ring must not be executed against the next.  The reply
        is built last, so it names everything learned while the join ran.
        """
        address = str(payload["address"])
        async with self._joining:
            self.table.add(address, str(payload["host"]), int(payload["port"]))
            follow_up = self.on_ring_change(MergeOutcome(changed=True, joined=[address]))
            await self.broadcast(exclude={address})
            if follow_up is not None:
                await follow_up
            return self.table.payload()

    async def _member_update(self, payload: Any) -> bool:
        """Merge a pushed table; answer once whatever it set off is done
        (a member new to this peer gets its share of the data first)."""
        outcome = self.table.merge(payload, self.clock())
        follow_up = self._absorb(outcome)
        if follow_up is not None:
            await follow_up
        return outcome.changed

    def _swim_ping(self, payload: Any) -> dict:
        """Answer a probe: merge the prober's table, reply with ours and a
        health sample (``merge`` reads only ``epoch`` and ``members``)."""
        if isinstance(payload, dict):
            self._absorb(self.table.merge(payload, self.clock()))
        return {**self.table.payload(), "health": self.health()}

    def _suspect(self, payload: Any) -> bool:
        """Merge one gossiped suspicion record; the merge refutes one
        about this peer."""
        outcome = self.table.merge(payload, self.clock())
        self._absorb(outcome)
        return outcome.changed

    async def _ping_req(self, payload: Any) -> Any:
        """Probe a third member on a requester's behalf: its ping reply,
        or False."""
        self._count("swim.ping_reqs_served", "ping-req probes served as proxy")
        timeout_ms = float(payload.get("timeout_ms", self.ping_timeout_ms))
        try:
            reply = await self.send(
                str(payload["address"]), "swim-ping", self.table.payload(),
                timeout_ms=timeout_ms,
            )
        except ReproError:
            return False
        if not isinstance(reply, dict):
            return False
        self._absorb(self.table.merge(reply, self.clock()))
        return reply

    async def depart(self) -> int:
        """Graceful departure: hand every entry to its post-leave replica
        set, then announce the leave.  Returns the copies moved."""
        self.table.depart()
        hand_off = self.on_ring_change(MergeOutcome(changed=True, departed=True))
        moved = await hand_off if hand_off is not None else 0
        await self.broadcast()
        logger.info(
            "peer %s leaving: moved %d copie(s) to %d member(s)",
            self.table.self_address, moved, len(self.table.endpoints()),
        )
        return moved
