"""Overlay routers: one interface over Chord and CAN.

Section 3.1: "Any of the distributed hash tables (DHT), e.g., CAN [13] or
Chord [14], can be used for this purpose."  The range-selection system
only needs two operations from its DHT — *who owns this identifier* and
*route to the owner, counting hops* — so both overlays are wrapped behind
this small interface and selected by ``SystemConfig.overlay``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable

from repro.chord.ring import ChordRing
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.can.network import CanOverlay
    from repro.core.config import SystemConfig

__all__ = ["OverlayRouter", "ChordRouter", "CanRouter", "build_overlay"]


class OverlayRouter(ABC):
    """The DHT surface the system depends on."""

    def __init__(self, members: "ChordRing | CanOverlay") -> None:
        #: The overlay's member table; both overlays keep their ids sorted.
        self._members = members

    @property
    def node_ids(self) -> list[int]:
        """All peer ids, ascending (a fresh list: O(N) per call)."""
        return self._members.node_ids

    def __len__(self) -> int:
        return len(self._members)

    def node_at(self, index: int) -> int:
        """``node_ids[index]`` without building the list."""
        return self._members.node_at(index)

    @property
    def membership_epoch(self) -> int:
        """A counter that moves whenever a peer is added or removed;
        anything derived from the member set is stale once it differs."""
        return self._members.membership_epoch

    @abstractmethod
    def owner_of(self, key: int) -> int:
        """Peer id responsible for a bucket identifier."""

    #: Per-hop routing callback: ``(from_id, to_id, via)`` where ``via``
    #: names the routing edge (Chord: ``finger[i]``/``successor``; CAN:
    #: ``greedy``).  The tracing layer passes one to see lookups hop by hop.
    HopRecorder = Callable[[int, int, str], None]

    @abstractmethod
    def route(
        self,
        key: int,
        start_id: int,
        recorder: "OverlayRouter.HopRecorder | None" = None,
    ) -> tuple[int, ...]:
        """Route ``key`` from ``start_id``; return the node-id path
        traversed.  The first element is ``start_id`` itself and the last
        is the owner, so the path has ``hops + 1`` entries (a start node
        that already owns the key yields a one-element path).  When given,
        ``recorder`` is invoked once per traversed edge."""

    def lookup(self, key: int, start_id: int) -> tuple[int, int]:
        """Route ``key`` from ``start_id``; return (owner id, hops)."""
        path = self.route(key, start_id)
        return (path[-1], len(path) - 1)

    def replica_set(
        self,
        key: int,
        count: int,
        predicate: "Callable[[int], bool] | None" = None,
    ) -> list[int]:
        """The peers a ``count``-way replicated ``key`` is placed on, the
        owner first.  Overlays without a successor structure (CAN) know
        only the owner, so the base implementation returns it alone."""
        owner = self.owner_of(key)
        if predicate is not None and not predicate(owner):
            return []
        return [owner]

    def failover_set(
        self, key: int, count: int, predicate: Callable[[int], bool]
    ) -> list[int]:
        """``replica_set(key, count)`` followed by the peers of
        ``replica_set(key, count, predicate)`` it lacks; without a
        successor structure, the owner alone."""
        return [self.owner_of(key)]


class ChordRouter(OverlayRouter):
    """Chord: successor ownership, finger-table routing, O(log N) hops."""

    def __init__(self, ring: ChordRing) -> None:
        super().__init__(ring)
        self.ring = ring

    @classmethod
    def build(
        cls, n_peers: int, m: int = 32, successor_list_size: int = 4
    ) -> "ChordRouter":
        ring = ChordRing(m=m, successor_list_size=successor_list_size)
        ring.add_nodes(n_peers)
        ring.build()
        return cls(ring)

    @classmethod
    def mirror(cls, addresses: Iterable[str], config: SystemConfig) -> "ChordRouter":
        """The ring a live peer or client mirrors from its member view: a
        node per address (SHA-1 id), built statically."""
        ring = ChordRing(
            m=config.id_bits, successor_list_size=config.successor_list_size
        )
        for address in addresses:
            ring.add_node(address)
        ring.build()
        return cls(ring)

    def owner_of(self, key: int) -> int:
        return self.ring.successor_of(key)

    def route(
        self,
        key: int,
        start_id: int,
        recorder: "OverlayRouter.HopRecorder | None" = None,
    ) -> tuple[int, ...]:
        return self.ring.lookup_path(key, start_id=start_id, recorder=recorder)

    def lookup(self, key: int, start_id: int) -> tuple[int, int]:
        result = self.ring.lookup(key, start_id=start_id)
        return (result.owner_id, result.hops)

    def replica_set(
        self,
        key: int,
        count: int,
        predicate: "Callable[[int], bool] | None" = None,
    ) -> list[int]:
        return self.ring.successor_chain(key, count, predicate)

    def failover_set(
        self, key: int, count: int, predicate: Callable[[int], bool]
    ) -> list[int]:
        return self.ring.failover_chain(key, count, predicate)


class CanRouter(OverlayRouter):
    """CAN: zone ownership, greedy coordinate routing, O(d·N^(1/d)) hops."""

    def __init__(self, overlay: CanOverlay) -> None:
        super().__init__(overlay)
        self.overlay = overlay

    @classmethod
    def build(cls, n_peers: int, dimensions: int = 2, seed: int = 0) -> "CanRouter":
        # Imported where a CAN overlay is built: a Chord-only process (a
        # live peer) never loads the CAN modules.
        from repro.can.network import CanOverlay

        overlay = CanOverlay(dimensions=dimensions)
        overlay.build(n_peers, seed=seed)
        return cls(overlay)

    def owner_of(self, key: int) -> int:
        return self.overlay.owner_of(key)

    def route(
        self,
        key: int,
        start_id: int,
        recorder: "OverlayRouter.HopRecorder | None" = None,
    ) -> tuple[int, ...]:
        path = self.overlay.lookup_path(key, start_id=start_id)
        if recorder is not None:
            for hop_from, hop_to in zip(path, path[1:]):
                recorder(hop_from, hop_to, "greedy")
        return path

    def lookup(self, key: int, start_id: int) -> tuple[int, int]:
        return self.overlay.lookup(key, start_id=start_id)


def build_overlay(
    kind: str,
    n_peers: int,
    id_bits: int = 32,
    dimensions: int = 2,
    seed: int = 0,
    successor_list_size: int = 4,
) -> OverlayRouter:
    """Construct the configured overlay."""
    if kind == "chord":
        return ChordRouter.build(
            n_peers, m=id_bits, successor_list_size=successor_list_size
        )
    if kind == "can":
        return CanRouter.build(n_peers, dimensions=dimensions, seed=seed)
    raise ConfigError(f"overlay must be 'chord' or 'can', got {kind!r}")
