"""What one peer does with an incoming request — transport-free.

Every transport ends at the same three data RPCs: *match* (best entry in
a bucket, or across the local store when the local-index extension is
on), *store* (cache one placement) and *fetch* (return the matched
partition's rows).  :class:`PeerLogic` owns that dispatch over one
peer's :class:`~repro.storage.store.PeerStore`, so the in-process
handlers of :class:`~repro.core.system.RangeSelectionSystem` and the
socket :class:`~repro.rpc.server.PeerServer` cannot drift apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.matcher import Matcher
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import ConfigError
from repro.ranges.interval import IntRange
from repro.storage.store import PeerStore

if TYPE_CHECKING:  # a live peer serves frames, not in-process messages
    from repro.net.message import Message

__all__ = ["PeerLogic", "DATA_KINDS"]

#: The data-plane request kinds every transport must serve.
DATA_KINDS = ("match-request", "store-request", "fetch-partition")


class PeerLogic:
    """Request dispatch for one peer's partitions and buckets."""

    def __init__(
        self,
        node_id: int,
        store: PeerStore,
        matcher: Matcher,
        *,
        local_index: bool = False,
    ) -> None:
        self.node_id = node_id
        self.store = store
        self.matcher = matcher
        self.local_index = local_index

    def deliver(self, message: Message) -> Any:
        """The in-process networks' handler: a message in, the reply out."""
        return self.handle(message.kind, message.payload)

    def handle(self, kind: str, payload: Any) -> Any:
        """Serve one request; raises ``ConfigError`` for unknown kinds."""
        if kind == "match-request":
            identifier, query, relation, attribute = payload
            return self.match(identifier, query, relation, attribute)
        if kind == "store-request":
            identifier, descriptor, partition, primary = payload
            return self.store.store(
                identifier, descriptor, partition, primary=primary
            )
        if kind == "fetch-partition":
            identifier, descriptor = payload
            return self.fetch(identifier, descriptor)
        raise ConfigError(f"unknown message kind {kind!r}")

    def match(
        self,
        identifier: int,
        query: IntRange,
        relation: str,
        attribute: str,
    ) -> tuple[PartitionDescriptor, float] | None:
        """The best-scoring stored descriptor for ``query``, if any."""
        score = self.matcher.score
        if self.local_index:
            found = self.store.best_match_local(query, relation, attribute, score)
        else:
            found = self.store.best_match_in_bucket(
                identifier, query, relation, attribute, score
            )
        if found is None:
            return None
        entry, value = found
        return (entry.descriptor, value)

    def fetch(
        self, identifier: int, descriptor: PartitionDescriptor
    ) -> Partition | None:
        """The stored partition under ``(identifier, descriptor)``."""
        bucket = self.store.bucket(identifier)
        entry = bucket.get(descriptor) if bucket is not None else None
        return entry.partition if entry is not None else None

    def holds(self, identifier: int, descriptor: PartitionDescriptor) -> bool:
        """Whether this peer currently stores ``(identifier, descriptor)``.

        The anti-entropy digest primitive: a repairing holder asks each
        replica target which of a batch of keys it already has, and only
        pushes the missing ones — one round trip per peer per round
        instead of one blind push per entry.
        """
        bucket = self.store.bucket(identifier)
        return bucket is not None and bucket.get(descriptor) is not None
