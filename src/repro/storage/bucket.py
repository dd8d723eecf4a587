"""One hash bucket: the partitions stored under a single identifier."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.db.partition import Partition, PartitionDescriptor
from repro.ranges.interval import IntRange

__all__ = ["StoredEntry", "Bucket", "select_best"]

#: Entries at which a bucket carries range columns and its groups of at
#: least this size are scored in one vectorised pass.  Smaller buckets —
#: the great majority — stay on the scalar loop and carry no columns at
#: all.  The matchers' scalar twins cost ~0.2-0.4 us per entry against
#: numpy's ~17-20 us per match (2-core x86 box), a break-even nearer
#: 32-40 entries; ``tests/test_rpc_engine.py``'s overfull workload fills
#: buckets to twice this constant, so raising it waits on that test.
COLUMNAR_MIN_ENTRIES = 8

#: Range bounds within ``±COLUMN_BOUND`` keep every size the matchers
#: divide (overlap, union, query length) below 2**53: exact in int64 *and*
#: in the float64 the division converts to, which is what makes the
#: vectorised scores bit-identical to Python's int/int.  A wider stored
#: range or query is scored by the scalar loop instead of wrapping.
COLUMN_BOUND = 2**50

#: Built once: resolving ``np.int64`` to a dtype costs more per match than
#: the zero-copy view it describes.
_INT64 = np.dtype(np.int64)


@dataclass(slots=True)
class StoredEntry:
    """A cached partition: descriptor always, rows only when data is kept.

    The scalability simulations store descriptors only (the paper's
    simulator does the same — it tracks placements, not tuples); the full
    database front end stores rows too.

    ``primary`` distinguishes the copy at the identifier's owner from the
    redundant copies the replication layer places at the owner's
    successors; eviction prefers shedding replicas, and repair promotes a
    replica to primary when ownership moves onto its holder.
    """

    descriptor: PartitionDescriptor
    partition: Partition | None = None
    access_clock: int = 0
    primary: bool = True


def select_best(
    candidates: Iterable[tuple[StoredEntry, float]], query: IntRange
) -> tuple[StoredEntry, float] | None:
    """The match tie rule, stated once: the highest score wins; among
    equal scores the entry whose range *is* the query beats any other;
    otherwise the candidate seen first (the earliest inserted) stays.
    """
    best: tuple[StoredEntry, float] | None = None
    for candidate in candidates:
        if (
            best is None
            or candidate[1] > best[1]
            or (
                candidate[1] == best[1]
                and candidate[0].descriptor.range == query
                and best[0].descriptor.range != query
            )
        ):
            best = candidate
    return best


def _in_column_bound(r: IntRange) -> bool:
    return -COLUMN_BOUND <= r.start and r.end <= COLUMN_BOUND


class _Columns:
    """One ``(relation, attribute)`` group of an indexed bucket: its
    entries in insertion order and their range bounds as int64 columns.

    ``starts``/``ends`` are ``array('q')`` (C-speed append, no growth
    copies, viewed zero-copy by numpy at match time) and parallel to
    ``entries``; both are ``None`` once the group holds a range outside
    :data:`COLUMN_BOUND`, which parks the group on the scalar loop.
    """

    __slots__ = ("entries", "starts", "ends")

    def __init__(self) -> None:
        self.entries: list[StoredEntry] = []
        self.starts: array | None = array("q")
        self.ends: array | None = array("q")


class Bucket:
    """The list of entries stored under one identifier at one peer."""

    __slots__ = ("identifier", "_entries", "_index", "_answer")

    def __init__(self, identifier: int) -> None:
        self.identifier = identifier
        self._entries: dict[PartitionDescriptor, StoredEntry] = {}
        #: Columnar side-index, kept exactly while the bucket holds at
        #: least COLUMNAR_MIN_ENTRIES: per (relation, attribute), the
        #: entries of ``_entries`` in that group, in insertion order.
        self._index: dict[tuple[str, str], _Columns] | None = None
        #: The last answer :meth:`best_match` gave a matcher's ``score``:
        #: ``(query, relation, attribute, score.columns, answer)``.  The
        #: column twin names the score (two scores sharing it give the
        #: same floats) without holding a bound method per bucket.  One
        #: slot, not a table: a bucket is asked the same query over and
        #: over (an exact hit on a popular range) far more often than it
        #: is asked two queries in turn.  Every change to ``_entries``
        #: goes through :meth:`add` or :meth:`remove`, which drop it.
        self._answer: tuple | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[StoredEntry]:
        return iter(self._entries.values())

    def __contains__(self, descriptor: PartitionDescriptor) -> bool:
        return descriptor in self._entries

    def add(self, entry: StoredEntry) -> bool:
        """Insert unless an identical descriptor is already present.

        Returns True when the entry was newly stored.  Re-adding an existing
        descriptor *with* rows upgrades a descriptor-only entry in place.
        A re-add also refreshes the entry's ``access_clock`` — a
        re-stored partition is recent activity, and keeping the stale
        timestamp would leave the upgraded entry first in line for LRU
        eviction.
        """
        entries = self._entries
        size = len(entries)
        # setdefault, not get-then-set: hashing a descriptor is the
        # costliest step of an insert, and this does it once.
        existing = entries.setdefault(entry.descriptor, entry)
        if len(entries) == size:
            # The same descriptor, so the same answers: keep the last one.
            if existing.partition is None and entry.partition is not None:
                existing.partition = entry.partition
            if entry.primary:
                existing.primary = True
            existing.access_clock = max(existing.access_clock, entry.access_clock)
            return False
        self._answer = None
        if self._index is not None:
            self._index_append(entry)
        elif size + 1 >= COLUMNAR_MIN_ENTRIES:
            self._rebuild_index()
        return True

    def remove(self, descriptor: PartitionDescriptor) -> StoredEntry | None:
        """Remove and return the entry for ``descriptor``, if present."""
        entry = self._entries.pop(descriptor, None)
        if entry is not None:
            self._answer = None
            if self._index is not None:
                # Removal is rare (eviction, hand-off): rebuild rather
                # than splice the columns.
                self._rebuild_index()
        return entry

    def _index_append(self, entry: StoredEntry) -> None:
        descriptor = entry.descriptor
        key = (descriptor.relation, descriptor.attribute)
        columns = self._index.get(key)
        if columns is None:
            columns = self._index[key] = _Columns()
        columns.entries.append(entry)
        starts = columns.starts
        if starts is not None:
            r = descriptor.range
            if _in_column_bound(r):
                starts.append(r.start)
                columns.ends.append(r.end)
            else:
                columns.starts = columns.ends = None

    def _rebuild_index(self) -> None:
        if len(self._entries) < COLUMNAR_MIN_ENTRIES:
            self._index = None
            return
        self._index = {}
        for entry in self._entries.values():
            self._index_append(entry)

    def get(self, descriptor: PartitionDescriptor) -> StoredEntry | None:
        """The entry for ``descriptor``, if present."""
        return self._entries.get(descriptor)

    def best_match(
        self,
        query: IntRange,
        relation: str,
        attribute: str,
        score: Callable[[IntRange, PartitionDescriptor], float],
    ) -> tuple[StoredEntry, float] | None:
        """The highest-scoring entry for the query, restricted to the same
        relation and attribute; ties resolve by :func:`select_best`.

        A ``score`` that carries a vectorised ``columns`` twin (the
        matchers in :mod:`repro.core.matcher`) is evaluated in one numpy
        pass over an indexed group, and through its ``scalar`` twin on a
        small group or bounds outside :data:`COLUMN_BOUND`; any other
        callable is called per entry.  All hand their scores to the same
        selection rule.  The matchers' answer is a pure function of the
        entries and the arguments, so the last one is remembered and a
        repeat of its arguments returns it unscored.
        """
        vectorised = getattr(score, "columns", None)
        if vectorised is None:
            return self._best_match(query, relation, attribute, score, None)
        answer = self._answer
        if (
            answer is not None
            and answer[0] == query
            and answer[3] is vectorised
            and answer[1] == relation
            and answer[2] == attribute
        ):
            return answer[4]
        best = self._best_match(query, relation, attribute, score, vectorised)
        self._answer = (query, relation, attribute, vectorised, best)
        return best

    def _best_match(
        self,
        query: IntRange,
        relation: str,
        attribute: str,
        score: Callable[[IntRange, PartitionDescriptor], float],
        vectorised: Callable | None,
    ) -> tuple[StoredEntry, float] | None:
        if self._index is None:
            entries = [
                entry
                for entry in self._entries.values()
                if entry.descriptor.relation == relation
                and entry.descriptor.attribute == attribute
            ]
        else:
            columns = self._index.get((relation, attribute))
            if columns is None:
                return None
            entries = columns.entries
            if (
                vectorised is not None
                and columns.starts is not None
                and len(entries) >= COLUMNAR_MIN_ENTRIES
                and _in_column_bound(query)
            ):
                scores = vectorised(
                    query,
                    np.frombuffer(columns.starts, _INT64),
                    np.frombuffer(columns.ends, _INT64),
                )
                top = scores.item(scores.argmax())
                # Only an entry at the top score can win, so the tie rule
                # needs to see just those (almost always one).
                return select_best(
                    [(entries[i], top) for i in (scores == top).nonzero()[0].tolist()],
                    query,
                )
        scalar = getattr(score, "scalar", None)
        if scalar is None:
            scored: Iterable[tuple[StoredEntry, float]] = (
                (entry, score(query, entry.descriptor)) for entry in entries
            )
        else:
            scored = zip(entries, scalar(query, [e.descriptor.range for e in entries]))
        return select_best(scored, query)

    def descriptors(self) -> list[PartitionDescriptor]:
        """All descriptors in the bucket."""
        return list(self._entries)
