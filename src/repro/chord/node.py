"""A single Chord node: identifier, finger table, ring neighbours."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ChordNode"]


@dataclass
class ChordNode:
    """State one peer keeps for overlay routing.

    ``fingers[i]`` holds the id of the first node at clockwise distance at
    least ``2^i`` — "information about other peers at logarithmically
    increasing distance in the ring" (paper Section 1).  Only node *ids* are
    stored; the :class:`~repro.chord.ring.ChordRing` resolves ids to nodes,
    mirroring how a real implementation stores addresses.
    """

    node_id: int
    address: str
    successor_id: int | None = None
    predecessor_id: int | None = None
    fingers: list[int] = field(default_factory=list)
    #: The next ``r`` distinct nodes clockwise (the Chord successor list).
    #: This is what makes lookups and storage survive a crashed successor:
    #: a peer that cannot reach its successor falls back down this list.
    successor_list: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        return f"Node({self.node_id} @ {self.address})"
