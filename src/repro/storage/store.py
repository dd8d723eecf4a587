"""The per-peer store: buckets plus an optional eviction policy."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator

from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import StorageError
from repro.ranges.interval import IntRange
from repro.storage.bucket import Bucket, StoredEntry, select_best

__all__ = ["PeerStore", "EvictionPolicy", "NoEviction", "LRUEviction"]

ScoreFn = Callable[[IntRange, PartitionDescriptor], float]

#: Observer invoked after every entry mutation with a structured op
#: record (live objects, not wire forms).  The durability layer attaches
#: one to journal mutations; when unset (the default) the store's
#: behavior is unchanged.
MutationHook = Callable[[dict], None]


class EvictionPolicy(ABC):
    """Decides which entry leaves the store when capacity is exceeded."""

    @abstractmethod
    def on_insert(self, store: "PeerStore") -> None:
        """Called after an insert; may evict entries to honour capacity."""

    @abstractmethod
    def on_access(self, entry: StoredEntry, clock: int) -> None:
        """Called when an entry participates in a match."""


class NoEviction(EvictionPolicy):
    """Unbounded store (the paper's model)."""

    def on_insert(self, store: "PeerStore") -> None:  # noqa: D102
        pass

    def on_access(self, entry: StoredEntry, clock: int) -> None:  # noqa: D102
        pass


class LRUEviction(EvictionPolicy):
    """Capacity-bounded store, evicting the least recently used entry.

    Replica copies are shed before primaries: evicting a replica only
    costs redundancy (the identifier's owner still holds the entry), while
    evicting a primary can lose the last authoritative copy.  Among
    entries of the same role, least recently used goes first.
    """

    def __init__(self, max_partitions: int) -> None:
        if max_partitions <= 0:
            raise StorageError("LRU capacity must be positive")
        self.max_partitions = max_partitions

    def on_insert(self, store: "PeerStore") -> None:
        while store.partition_count > self.max_partitions:
            victim = min(
                store.entries(),
                key=lambda pair: (pair[1].primary, pair[1].access_clock),
            )
            identifier, entry = victim
            store.remove(identifier, entry.descriptor)

    def on_access(self, entry: StoredEntry, clock: int) -> None:
        entry.access_clock = clock


#: Modelled wire/storage size of a descriptor-only entry (no rows kept);
#: matches the default ``size_bytes`` the system charges for store traffic.
DESCRIPTOR_ONLY_BYTES = 64


class PeerStore:
    """All hash buckets one peer is responsible for."""

    def __init__(self, peer_id: int, eviction: EvictionPolicy | None = None) -> None:
        self.peer_id = peer_id
        self.eviction = eviction if eviction is not None else NoEviction()
        self._buckets: dict[int, Bucket] = {}
        self._clock = 0
        #: Match requests this peer has answered (hit or miss) — the
        #: per-node "queries served" gauge the health sampler reads.
        self.queries_served = 0
        #: Store requests this peer has handled (new or duplicate).
        self.stores_served = 0
        #: Optional durability observer; see :data:`MutationHook`.
        self.mutation_hook: MutationHook | None = None
        #: Counts what the hook is told of, hook or no hook: equal before
        #: and after means the entries (and their roles) did not change.
        self.mutations = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def store(
        self,
        identifier: int,
        descriptor: PartitionDescriptor,
        partition: Partition | None = None,
        primary: bool = True,
        *,
        via: str = "store",
    ) -> bool:
        """Store a partition under ``identifier``; returns True when new.

        ``primary=False`` marks the copy as a replica placed for fault
        tolerance; re-storing an existing entry as primary promotes it.
        ``via`` labels the mutation for the durability hook ("store",
        "repair-push", "handoff", ...); it does not change behavior.
        """
        bucket = self._buckets.get(identifier)
        if bucket is None:
            bucket = Bucket(identifier)
            self._buckets[identifier] = bucket
        self._clock += 1
        self.stores_served += 1
        added = bucket.add(
            StoredEntry(
                descriptor=descriptor,
                partition=partition,
                access_clock=self._clock,
                primary=primary,
            )
        )
        self.mutations += 1
        if self.mutation_hook is not None:
            self._journal_store(identifier, bucket.get(descriptor), via)
        if added:
            self.eviction.on_insert(self)
        return added

    def set_primary(
        self,
        identifier: int,
        descriptor: PartitionDescriptor,
        primary: bool,
        *,
        via: str = "role",
    ) -> bool:
        """Set a held entry's primary/replica role; True when it changed.

        Unlike :meth:`store`, which can only promote, this also demotes a
        primary whose holder dropped to rank >= 1.  Neither the logical
        clock nor eviction is touched.
        """
        bucket = self._buckets.get(identifier)
        entry = bucket.get(descriptor) if bucket is not None else None
        if entry is None or entry.primary == primary:
            return False
        entry.primary = primary
        self.mutations += 1
        if self.mutation_hook is not None:
            self._journal_store(identifier, entry, via)
        return True

    def _journal_store(self, identifier: int, entry: StoredEntry, via: str) -> None:
        """Hand the entry's *post-mutation* state to the durability hook:
        a duplicate store still promotes/refreshes, and replaying final
        states in order converges to the same entry."""
        self.mutation_hook(
            {
                "op": "store",
                "via": via,
                "identifier": identifier,
                "descriptor": entry.descriptor,
                "partition": entry.partition,
                "primary": entry.primary,
                "access_clock": entry.access_clock,
                "clock": self._clock,
            }
        )

    def remove(
        self,
        identifier: int,
        descriptor: PartitionDescriptor,
        *,
        via: str = "evict",
    ) -> bool:
        """Remove one entry; prunes the bucket when it empties."""
        removed = self._drop(identifier, descriptor)
        if removed:
            self.mutations += 1
            if self.mutation_hook is not None:
                self.mutation_hook(
                    {
                        "op": "remove",
                        "via": via,
                        "identifier": identifier,
                        "descriptor": descriptor,
                    }
                )
        return removed

    def _drop(self, identifier: int, descriptor: PartitionDescriptor) -> bool:
        bucket = self._buckets.get(identifier)
        if bucket is None or bucket.remove(descriptor) is None:
            return False
        if len(bucket) == 0:
            del self._buckets[identifier]
        return True

    def replay(self, ops: Iterable[dict], clock: int = 0) -> int:
        """Replay primitive: apply decoded ops in order; returns how many.

        ``ops`` are snapshot entries or journal records as
        :func:`~repro.storage.snapshot.decode_entry` reads them.  A store
        lands with its recorded role (a held entry is demoted too) and
        access clock; the clock moves forward to the largest of
        ``clock``, the ops' ``clock`` and their access clocks.  Replay
        never evicts (evictions replay from their own records) and never
        fires the mutation hook (it must not re-journal).
        """
        applied = 0
        for op in ops:
            identifier, descriptor = op["identifier"], op["descriptor"]
            applied += 1
            if op["op"] == "remove":
                self._drop(identifier, descriptor)
                continue
            bucket = self._buckets.get(identifier)
            if bucket is None:
                bucket = Bucket(identifier)
                self._buckets[identifier] = bucket
            entry = StoredEntry(
                descriptor=descriptor,
                partition=op["partition"],
                access_clock=op["access_clock"],
                primary=op["primary"],
            )
            if not bucket.add(entry):
                bucket.get(descriptor).primary = entry.primary
            clock = max(clock, entry.access_clock, op.get("clock", 0))
        self._clock = max(self._clock, clock)
        return applied

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def bucket(self, identifier: int) -> Bucket | None:
        """The bucket for ``identifier``, or None when empty."""
        return self._buckets.get(identifier)

    def best_match_in_bucket(
        self,
        identifier: int,
        query: IntRange,
        relation: str,
        attribute: str,
        score: ScoreFn,
    ) -> tuple[StoredEntry, float] | None:
        """Best match searching *only* the requested identifier's bucket
        (the paper's base scheme)."""
        self.queries_served += 1
        bucket = self._buckets.get(identifier)
        if bucket is None:
            return None
        best = bucket.best_match(query, relation, attribute, score)
        if best is not None:
            self._touch(identifier, best[0])
        return best

    def best_match_local(
        self,
        query: IntRange,
        relation: str,
        attribute: str,
        score: ScoreFn,
    ) -> tuple[StoredEntry, float] | None:
        """Best match over *every* bucket at this peer.

        Section 5.3's local-index refinement: "we could now build up an
        index over all the partitions that get stored in various buckets at
        a peer" and search it instead of one bucket.  Bucket winners
        compete under the same tie rule as entries within a bucket.
        """
        self.queries_served += 1
        winners = (
            (*winner, bucket.identifier)
            for bucket in self._buckets.values()
            if (winner := bucket.best_match(query, relation, attribute, score))
        )
        best = select_best(winners, query)
        if best is None:
            return None
        self._touch(best[2], best[0])
        return best[:2]

    def _touch(self, identifier: int, entry: StoredEntry) -> None:
        """A served match: advance the clock and let the eviction policy
        refresh the winner.  A refresh that changed the entry (LRU's
        access clock) is journaled as its post-state (``via="access"``)
        so a restarted peer evicts in the same order; it is not counted
        in :attr:`mutations`, which tracks entries and roles only."""
        self._clock += 1
        before = entry.access_clock
        self.eviction.on_access(entry, self._clock)
        if self.mutation_hook is not None and entry.access_clock != before:
            self._journal_store(identifier, entry, "access")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> int:
        """Current value of the store's logical access clock."""
        return self._clock

    @property
    def partition_count(self) -> int:
        """Total entries across all buckets (the paper's load metric)."""
        return sum(len(b) for b in self._buckets.values())

    @property
    def stored_bytes(self) -> int:
        """Modelled bytes held: partition sizes, or the descriptor-only
        charge for entries stored without rows."""
        return sum(
            entry.partition.size_bytes
            if entry.partition is not None
            else DESCRIPTOR_ONLY_BYTES
            for _, entry in self.entries()
        )

    @property
    def bucket_count(self) -> int:
        """Number of non-empty buckets."""
        return len(self._buckets)

    @property
    def primary_count(self) -> int:
        """Entries this peer holds as the identifier's owner."""
        return sum(1 for _, entry in self.entries() if entry.primary)

    @property
    def replica_count(self) -> int:
        """Entries this peer holds as redundant replicas."""
        return sum(1 for _, entry in self.entries() if not entry.primary)

    def entries(self) -> Iterator[tuple[int, StoredEntry]]:
        """Every (identifier, entry) pair in the store."""
        for identifier, bucket in self._buckets.items():
            for entry in bucket:
                yield identifier, entry

    def identifiers(self) -> list[int]:
        """Identifiers with non-empty buckets."""
        return list(self._buckets)
