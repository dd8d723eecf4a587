"""Replica placement: where copies should be, and how to get them there.

The paper's step 5 stores a partition at the owners of its ``l``
identifiers; the replication layer keeps ``r`` copies of each on the
owner's ring successors.  *Where should an identifier's copies live?* is
answered by :class:`ReplicaPlacement`, shared by the in-process system,
the socket client's topology view and every peer server's ring mirror;
the first two also hash ranges, through :class:`HashedPlacement`.
*Given who holds an entry and who should, what closes the gap?* is
answered by :func:`plan_placement`, a pure diff; rebalance, hand-off and
repair — in-process, simulated and live — are thin executors of its plan.
*How far from that is the ring now?* is :func:`audit_placement`, which
grades the same plan's actions for every auditor, in-process and live.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.chord.hashing import rehash_for_placement
from repro.core.config import SystemConfig
from repro.db.partition import PartitionDescriptor
from repro.errors import ConfigError
from repro.lsh import LSHIdentifierScheme, family_for_domain
from repro.ranges.interval import IntRange

__all__ = [
    "Action", "Finding", "HashedPlacement", "Key", "ReplicaPlacement",
    "audit_placement", "plan_placement",
]

#: One cached entry, system-wide: (identifier, descriptor).
Key = tuple[int, PartitionDescriptor]


#: Ring positions remembered per placement before the table starts over.
PLACED_CACHE_LIMIT = 1 << 12
#: Ranges whose identifiers are remembered before the table starts over.
IDENTIFIERS_CACHE_LIMIT = 1 << 12


class ReplicaPlacement:
    """The replica sets of identifiers, from ``self.config`` (placement
    mode, id bits, replication factor) and ``self.router`` (the ring)."""

    #: identifier -> ring position under ``rehash`` placement, made on
    #: the first one: a pure function of the identifier and
    #: ``config.id_bits``, and a query places each of its ``l``
    #: identifiers at least twice.  Emptied whenever it reaches
    #: :data:`PLACED_CACHE_LIMIT`.
    _placed: dict[int, int] | None = None

    def place_identifier(self, identifier: int) -> int:
        """Ring position for a bucket identifier.

        ``rehash`` placement (the default) spreads buckets uniformly with
        SHA-1; ``direct`` placement uses the raw LSH identifier, which is
        what the paper's text literally describes — and which concentrates
        load, because min-hash identifiers are small by construction.  The
        bucket is always keyed by the raw identifier, so matching semantics
        are identical under both modes.
        """
        config = self.config
        if config.placement != "rehash":
            return identifier
        table = self._placed
        if table is None:
            table = self._placed = {}
        placed = table.get(identifier)
        if placed is None:
            placed = rehash_for_placement(identifier, config.id_bits)
            if len(table) >= PLACED_CACHE_LIMIT:
                table.clear()
            table[identifier] = placed
        return placed

    def replica_owners(self, identifier: int) -> list[int]:
        """The nominal replica set of ``identifier``: its owner followed by
        the next ``replicas - 1`` distinct ring successors."""
        return self.router.replica_set(
            self.place_identifier(identifier), self.config.replicas
        )

    def replica_targets(
        self, identifier: int, is_alive: Callable[[int], bool]
    ) -> list[int]:
        """Where ``identifier`` should live *right now*: the first
        ``replicas`` alive peers down the successor chain.  This is the
        repair loop's goal state — it keeps data on peers a failover
        lookup will actually reach."""
        return self.router.replica_set(
            self.place_identifier(identifier),
            self.config.replicas,
            predicate=is_alive,
        )

    def failover_candidates(
        self,
        identifier: int,
        is_alive: Callable[[int], bool] | None = None,
        *,
        placed: int | None = None,
    ) -> list[int]:
        """Peers to ask for ``identifier``, in order: the nominal replica
        set first (warm copies live there), then — when liveness is known —
        the alive successors the repair loop re-replicates onto.  One walk
        down the ring finds both; ``placed`` is the identifier's ring
        position when the caller has already computed it.

        With ``replicas == 1`` there is nothing to fail over to: the list
        is just the owner, reproducing the unreplicated behaviour (a
        crashed owner means a lost lookup)."""
        if placed is None:
            placed = self.place_identifier(identifier)
        replicas = self.config.replicas
        if replicas > 1 and is_alive is not None:
            return self.router.failover_set(placed, replicas, is_alive)
        return self.router.replica_set(placed, replicas)


class HashedPlacement(ReplicaPlacement):
    """Replica placement behind the hashing front: the seeded LSH scheme
    of ``config``, which turns a range into the identifiers to place.

    The front — ``l x k`` sampled permutations, stacked for their
    interval minima — is complete when the constructor returns.  It
    depends on :data:`HASHING_FIELDS` alone, so a ``previous`` placement
    whose config agrees on them hands its front over instead of having an
    identical one built, and with it the identifiers it has computed.
    """

    #: The config fields the scheme is built from.
    HASHING_FIELDS = ("family", "domain", "l", "k", "seed", "id_bits")

    def __init__(
        self, config: SystemConfig, previous: "HashedPlacement | None" = None
    ) -> None:
        self.config = config
        if previous is not None and all(
            getattr(config, name) == getattr(previous.config, name)
            for name in self.HASHING_FIELDS
        ):
            self.scheme = previous.scheme
            self._identifiers = previous._identifiers
            return
        #: range -> its identifiers, as a tuple: a pure function of the
        #: range and the scheme, so it goes wherever the scheme goes.
        #: Emptied whenever it reaches :data:`IDENTIFIERS_CACHE_LIMIT`.
        self._identifiers: dict[IntRange, tuple[int, ...]] = {}
        family = family_for_domain(config.family, config.domain)
        self.scheme = LSHIdentifierScheme.from_family(
            family, l=config.l, k=config.k, seed=config.seed, id_bits=config.id_bits
        )
        domain = config.domain
        if domain.low < 0 or domain.high >= self.scheme.space_size:
            raise ConfigError(
                f"domain [{domain.low}, {domain.high}] reaches past the "
                f"{config.family} space [0, {self.scheme.space_size})"
            )

    def pad_query(
        self, query: IntRange, padding: float | None = None
    ) -> tuple[IntRange, float]:
        """The range hashed (and stored on a miss) for ``query``, with the
        padding applied: ``padding``, or the configured one when None,
        widens ``query`` within the domain first (Section 5.2).  The
        caller still reports similarity and recall against ``query``."""
        if padding is None:
            padding = self.config.padding
        if padding <= 0:
            return query, padding
        domain = self.config.domain
        padded = query.pad(padding, lower_bound=domain.low, upper_bound=domain.high)
        return padded, padding

    def identifiers_for(self, r: IntRange) -> list[int]:
        """The ``l`` identifiers of ``r``, in the configured domain or any
        other the family's space covers (the SQL front end hashes ages,
        ids and date codes alike).  A fresh list on every call."""
        identifiers = self._identifiers.get(r)
        if identifiers is None:
            identifiers = tuple(self.scheme.identifiers(r))
            if len(self._identifiers) >= IDENTIFIERS_CACHE_LIMIT:
                self._identifiers.clear()
            self._identifiers[r] = identifiers
        return list(identifiers)


class Action(NamedTuple):
    """One step of a placement plan, about ``node``'s copy of an entry.

    ``kind`` is ``"copy"`` (``node`` should hold the entry with role
    ``primary`` and does not; the live holder ``source`` can supply it),
    ``"set_role"`` (``node`` holds it under the wrong flag; ``primary`` is
    the right one), ``"drop"`` (``node`` holds it but is outside the
    desired replica set) or ``"lost"`` (every holder is down, so no live
    peer can source a copy; ``node`` is ``None``).
    """

    kind: str
    identifier: int
    descriptor: PartitionDescriptor
    node: int | None = None
    primary: bool = False
    source: int | None = None


def plan_placement(
    holders: Mapping[Key, Mapping[int, bool]],
    desired: Callable[[int], Sequence[int]],
) -> Iterator[Action]:
    """The actions that move every entry onto its desired replica set.

    ``holders[(identifier, descriptor)]`` maps each *live* peer known to
    hold the entry to its ``primary`` flag — every live store in-process,
    only ``self`` on a server (a digest exchange then filters the copies
    its peers already have).  An entry known only on peers that are down
    maps to ``{}`` and is ``lost``.  ``desired(identifier)`` is the
    ordered replica set; rank 0 is the primary.

    Entries come in ``holders`` order and, per entry, actions in rank
    order then the drops, so executors are deterministic.  A correctly
    placed entry yields nothing; applying a plan leaves an empty plan.
    """
    for (identifier, descriptor), held in holders.items():
        if not held:
            yield Action("lost", identifier, descriptor)
            continue
        wanted = desired(identifier)
        source = next(iter(held))
        for rank, node in enumerate(wanted):
            primary = rank == 0
            flag = held.get(node)
            if flag is None:
                yield Action("copy", identifier, descriptor, node, primary, source)
            elif flag != primary:
                yield Action("set_role", identifier, descriptor, node, primary)
        for node in held:
            if node not in wanted:
                yield Action("drop", identifier, descriptor, node)


class Finding(NamedTuple):
    """One graded placement violation (or note) about ``identifier``; one
    about a single entry names its ``descriptor``, one about a single
    copy also the holder ``node``."""

    severity: str
    check: str
    identifier: int
    message: str
    node: int | None = None
    descriptor: PartitionDescriptor | None = None


def audit_placement(
    holders: Mapping[Key, Mapping[int, bool]],
    placement: ReplicaPlacement,
    is_alive: Callable[[int], bool] | None = None,
) -> Iterator[Finding]:
    """Grade the plan that moves every entry onto its alive targets.

    ``holders`` is :func:`plan_placement`'s map with the down holders
    kept in; ``is_alive`` (None: every peer is up) sets them apart.  The
    plan over the live holders and :meth:`ReplicaPlacement.replica_targets`
    is graded action by action: ``copy`` → ``replica-deficit`` (warning,
    one per identifier, counting its copies), ``lost`` → ``replica-loss``
    (critical), ``set_role`` → ``primary-flag`` (warning, only while no
    peer is down: failover skews flags), ``drop`` → ``stale-copy`` (info)
    within the first ``replicas + down`` peers of the successor chain,
    where an earlier repair epoch may have put it, else
    ``replica-placement`` (critical).  A down holder outside the nominal
    replica set is graded as a drop.

    Per-copy findings come first (flags, then down holders and drops),
    then the deficits by identifier, then the losses.
    """
    alive = is_alive if is_alive is not None else (lambda node: True)
    down = sum(1 for node in placement.router.node_ids if not alive(node))
    sets: dict[int, tuple[list[int], set[int]]] = {}

    def replica_sets(identifier: int) -> tuple[list[int], set[int]]:
        """(the alive targets, those and the nominal replica set)"""
        if identifier not in sets:
            wanted = placement.replica_targets(identifier, alive)
            sets[identifier] = (wanted, set(placement.replica_owners(identifier)).union(wanted))
        return sets[identifier]

    live = {key: {n: f for n, f in held.items() if alive(n)} for key, held in holders.items()}
    surplus = [(*key, n) for key, held in holders.items() for n in held if not alive(n)]
    missing: dict[int, int] = {}
    lost: list[Key] = []
    for action in plan_placement(live, lambda i: replica_sets(i)[0]):
        identifier, descriptor, node = action.identifier, action.descriptor, action.node
        if action.kind == "copy":
            missing[identifier] = missing.get(identifier, 0) + 1
        elif action.kind == "lost":
            lost.append((identifier, descriptor))
        elif action.kind == "drop":
            surplus.append((identifier, descriptor, node))
        elif not down:
            owner = replica_sets(identifier)[0][0]
            message = f"copy at {node} has primary={not action.primary}, owner is {owner}"
            yield Finding("warning", "primary-flag", identifier, message, node, descriptor)
    depth = placement.config.replicas + down
    for identifier, descriptor, node in surplus:
        allowed = replica_sets(identifier)[1]
        if node in allowed:
            continue
        if node in placement.router.replica_set(placement.place_identifier(identifier), depth):
            message = (
                f"surplus copy at {node}, beyond the current replica set "
                f"(left by an earlier repair epoch)"
            )
            yield Finding("info", "stale-copy", identifier, message, node, descriptor)
        else:
            message = f"copy held by {node}, outside replica set {sorted(allowed)}"
            yield Finding("critical", "replica-placement", identifier, message, node, descriptor)
    for identifier, count in sorted(missing.items()):
        message = f"{count} cop{'y' if count == 1 else 'ies'} missing from alive targets"
        yield Finding("warning", "replica-deficit", identifier, message)
    for identifier, descriptor in sorted(lost, key=lambda k: (k[0], str(k[1]))):
        message = f"every copy of {descriptor} sits on crashed peers"
        yield Finding("critical", "replica-loss", identifier, message, descriptor=descriptor)
