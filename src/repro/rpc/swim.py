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
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "Member",
    "MergeOutcome",
    "MembershipTable",
]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: State precedence at equal incarnations: dead > suspect > alive.
_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}


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

    @property
    def ring_changed(self) -> bool:
        return bool(self.joined or self.evicted)


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
