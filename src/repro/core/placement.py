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
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from repro.chord.hashing import rehash_for_placement
from repro.core.config import SystemConfig
from repro.db.partition import PartitionDescriptor
from repro.errors import ConfigError
from repro.lsh import LSHIdentifierScheme, family_for_domain
from repro.ranges.interval import IntRange

__all__ = ["Action", "HashedPlacement", "Key", "ReplicaPlacement", "plan_placement"]

#: One cached entry, system-wide: (identifier, descriptor).
Key = tuple[int, PartitionDescriptor]


class ReplicaPlacement:
    """The replica sets of identifiers, from ``self.config`` (placement
    mode, id bits, replication factor) and ``self.router`` (the ring)."""

    def place_identifier(self, identifier: int) -> int:
        """Ring position for a bucket identifier.

        ``rehash`` placement (the default) spreads buckets uniformly with
        SHA-1; ``direct`` placement uses the raw LSH identifier, which is
        what the paper's text literally describes — and which concentrates
        load, because min-hash identifiers are small by construction.  The
        bucket is always keyed by the raw identifier, so matching semantics
        are identical under both modes.
        """
        if self.config.placement == "rehash":
            return rehash_for_placement(identifier, self.config.id_bits)
        return identifier

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
    ) -> list[int]:
        """Peers to ask for ``identifier``, in order: the nominal replica
        set first (warm copies live there), then — when liveness is known —
        the alive successors the repair loop re-replicates onto.

        With ``replicas == 1`` there is nothing to fail over to: the list
        is just the owner, reproducing the unreplicated behaviour (a
        crashed owner means a lost lookup)."""
        candidates = self.replica_owners(identifier)
        if self.config.replicas > 1 and is_alive is not None:
            for peer in self.replica_targets(identifier, is_alive):
                if peer not in candidates:
                    candidates.append(peer)
        return candidates


class HashedPlacement(ReplicaPlacement):
    """Replica placement behind the hashing front: the seeded LSH scheme
    of ``config``, which turns a range into the identifiers to place.

    The front — ``l x k`` sampled permutations, stacked for their
    interval minima — is complete when the constructor returns.  It
    depends on :data:`HASHING_FIELDS` alone, so a ``previous`` placement
    whose config agrees on them hands its front over instead of having an
    identical one built.
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
            return
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
        ids and date codes alike)."""
        return self.scheme.identifiers(r)


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
