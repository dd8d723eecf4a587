"""The CAN overlay: membership, zone bookkeeping, greedy routing."""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.can.node import CanNode
from repro.can.space import RESOLUTION, Point, Zone, point_for_key
from repro.chord.hashing import node_id_for_address
from repro.errors import ChordError, DuplicateNodeError, EmptyRingError
from repro.util.rng import derive_rng

__all__ = ["CanOverlay"]


class CanOverlay:
    """A simulated CAN: zones tile a ``d``-dimensional torus.

    Joins follow the CAN protocol: the joiner picks a random point, the
    node owning that point splits the containing zone in half and hands one
    half over.  Departures hand the zone to a neighbour (merging when the
    union is rectangular, otherwise the neighbour holds multiple zones).
    Routing is greedy: forward to the neighbour whose zone is closest to
    the target point, counting overlay hops.
    """

    def __init__(self, dimensions: int = 2) -> None:
        if dimensions < 1:
            raise ChordError("CAN needs at least one dimension")
        self.dimensions = dimensions
        self._nodes: dict[int, CanNode] = {}
        self._sorted_ids: list[int] = []
        #: Bumped whenever a node joins or leaves (see ChordRing).
        self.membership_epoch = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> list[int]:
        """All node ids, ascending (copy)."""
        return list(self._sorted_ids)

    def node_at(self, index: int) -> int:
        """The ``index``-th node id in ascending order."""
        return self._sorted_ids[index]

    def _admit(self, node: CanNode) -> None:
        self._nodes[node.node_id] = node
        insort(self._sorted_ids, node.node_id)
        self.membership_epoch += 1

    def node(self, node_id: int) -> CanNode:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ChordError(f"no CAN node {node_id}") from None

    def bootstrap(self, address: str) -> CanNode:
        """First node: owns the whole space."""
        if self._nodes:
            raise ChordError("bootstrap is only for an empty overlay")
        node = CanNode(
            node_id=node_id_for_address(address),
            address=address,
            zones=[Zone.whole_space(self.dimensions)],
        )
        self._admit(node)
        return node

    def join(self, address: str, at_point: Point | None = None) -> CanNode:
        """Join by splitting the zone that owns ``at_point``.

        Without an explicit point, one is derived from the address hash
        (deterministic builds).
        """
        if not self._nodes:
            return self.bootstrap(address)
        node_id = node_id_for_address(address)
        if node_id in self._nodes:
            raise DuplicateNodeError(f"node id {node_id} already present")
        if at_point is None:
            at_point = point_for_key(node_id, self.dimensions)
        owner = self._owner_node(at_point)
        zone_index, zone = next(
            (i, z) for i, z in enumerate(owner.zones) if z.contains(at_point)
        )
        lower, upper = zone.split()
        keep, give = (lower, upper) if lower.contains(at_point) else (upper, lower)
        # The joiner takes the half containing its point; CAN's convention
        # is the opposite (the owner keeps its half) — either works as long
        # as both halves end up owned; we give the joiner the half with its
        # point so repeated joins spread deterministically.
        owner.zones[zone_index] = give
        joiner = CanNode(node_id=node_id, address=address, zones=[keep])
        self._admit(joiner)
        self._update_neighbors_after_change({owner.node_id, node_id})
        return joiner

    def build(self, n_peers: int, address_prefix: str = "can-peer", seed: int = 0) -> None:
        """Construct an overlay of ``n_peers`` nodes at random points."""
        if n_peers <= 0:
            raise ChordError("need at least one peer")
        rng = derive_rng(seed, "can/build")
        suffix = 0
        while len(self._nodes) < n_peers:
            address = f"{address_prefix}-{suffix}"
            suffix += 1
            point = tuple(
                int(rng.integers(0, RESOLUTION)) for _ in range(self.dimensions)
            )
            try:
                self.join(address, at_point=point)
            except (DuplicateNodeError, ChordError):
                continue

    def leave(self, node_id: int) -> None:
        """Graceful departure: every zone is handed to a neighbour."""
        if len(self._nodes) <= 1:
            raise ChordError("cannot remove the last CAN node")
        departing = self.node(node_id)
        affected = set(departing.neighbor_ids)
        del self._nodes[node_id]
        self._sorted_ids.pop(bisect_left(self._sorted_ids, node_id))
        self.membership_epoch += 1
        takers: set[int] = set()
        for zone in departing.zones:
            taker = self._takeover_target(zone, affected)
            takers.add(taker.node_id)
            merged = False
            for index, existing in enumerate(taker.zones):
                if existing.is_mergeable_with(zone):
                    taker.zones[index] = existing.merge(zone)
                    merged = True
                    break
            if not merged:
                taker.zones.append(zone)
        self._update_neighbors_after_change(affected | takers)

    def _takeover_target(self, zone: Zone, candidate_ids: set[int]) -> CanNode:
        """Prefer a neighbour that can merge; else the smallest neighbour."""
        candidates = [
            self._nodes[nid] for nid in candidate_ids if nid in self._nodes
        ]
        if not candidates:
            candidates = list(self._nodes.values())
        for node in sorted(candidates, key=lambda n: n.node_id):
            if any(z.is_mergeable_with(zone) for z in node.zones):
                return node
        return min(candidates, key=lambda n: (n.total_volume(), n.node_id))

    # ------------------------------------------------------------------
    # Neighbour bookkeeping
    # ------------------------------------------------------------------

    def _zones_abut(self, a: CanNode, b: CanNode) -> bool:
        return any(
            za.abuts(zb) or za.is_mergeable_with(zb)
            for za in a.zones
            for zb in b.zones
        )

    def _update_neighbors_after_change(self, changed_ids: set[int]) -> None:
        """Recompute neighbour sets for changed nodes and their vicinity."""
        vicinity = set()
        for nid in changed_ids:
            if nid not in self._nodes:
                continue
            vicinity.add(nid)
            vicinity |= self._nodes[nid].neighbor_ids
            # A changed node's new neighbours come from the vicinity of its
            # previous neighbours too.
            for other in list(self._nodes[nid].neighbor_ids):
                if other in self._nodes:
                    vicinity |= self._nodes[other].neighbor_ids
        vicinity = {nid for nid in vicinity if nid in self._nodes}
        # Small overlays: a global recompute is cheaper and always correct.
        if len(self._nodes) <= 64 or not vicinity:
            self._recompute_all_neighbors()
            return
        for nid in vicinity:
            node = self._nodes[nid]
            node.neighbor_ids = {
                other
                for other in vicinity
                if other != nid and self._zones_abut(node, self._nodes[other])
            } | {
                other
                for other in node.neighbor_ids
                if other in self._nodes
                and other not in vicinity
                and self._zones_abut(node, self._nodes[other])
            }
        # Enforce symmetry.
        for nid in vicinity:
            for other in self._nodes[nid].neighbor_ids:
                self._nodes[other].neighbor_ids.add(nid)

    def _recompute_all_neighbors(self) -> None:
        ids = list(self._nodes)
        for nid in ids:
            self._nodes[nid].neighbor_ids = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if self._zones_abut(self._nodes[a], self._nodes[b]):
                    self._nodes[a].neighbor_ids.add(b)
                    self._nodes[b].neighbor_ids.add(a)

    # ------------------------------------------------------------------
    # Ownership and routing
    # ------------------------------------------------------------------

    def _owner_node(self, point: Point) -> CanNode:
        if not self._nodes:
            raise EmptyRingError("CAN overlay has no nodes")
        for node in self._nodes.values():
            if node.owns_point(point):
                return node
        raise ChordError(f"no zone contains point {point}; space is torn")

    def owner_of(self, key: int) -> int:
        """Node id owning a 32-bit bucket identifier."""
        return self._owner_node(point_for_key(key, self.dimensions)).node_id

    def lookup(self, key: int, start_id: int | None = None) -> tuple[int, int]:
        """Greedy-route a key from ``start_id``; returns (owner_id, hops)."""
        point = point_for_key(key, self.dimensions)
        return self.route_to_point(point, start_id)

    def lookup_path(
        self, key: int, start_id: int | None = None
    ) -> tuple[int, ...]:
        """Greedy-route a key and return the full node-id path traversed
        (first element is the start node, last is the owner)."""
        point = point_for_key(key, self.dimensions)
        return self._route(point, start_id)

    def route_to_point(
        self, point: Point, start_id: int | None = None
    ) -> tuple[int, int]:
        """Greedy coordinate routing; returns (owner_id, hops)."""
        path = self._route(point, start_id)
        return (path[-1], len(path) - 1)

    def _route(self, point: Point, start_id: int | None = None) -> tuple[int, ...]:
        if not self._nodes:
            raise EmptyRingError("CAN overlay has no nodes")
        if start_id is None:
            start_id = self._sorted_ids[0]
        current = self.node(start_id)
        path = [current.node_id]
        visited = {current.node_id}
        max_hops = 4 * len(self._nodes) + 16
        while not current.owns_point(point):
            candidates = [
                self._nodes[nid]
                for nid in current.neighbor_ids
                if nid in self._nodes
            ]
            if not candidates:
                raise ChordError(
                    f"node {current.node_id} has no neighbours; routing stuck"
                )
            unvisited = [c for c in candidates if c.node_id not in visited]
            pool = unvisited if unvisited else candidates
            current = min(
                pool, key=lambda n: (n.distance_to_point(point), n.node_id)
            )
            visited.add(current.node_id)
            path.append(current.node_id)
            if len(path) - 1 > max_hops:
                raise ChordError("CAN routing exceeded hop bound")
        return tuple(path)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def audit(self) -> list[tuple[str, int, str]]:
        """Walk the zone tiling and neighbour sets, collecting violations.

        Returns ``(check, node_id, message)`` tuples — empty when zones
        tile the space exactly and neighbour sets are symmetric and
        current.  This is the walk the health auditor runs;
        :meth:`check_invariants` raises on the first finding instead.
        """
        findings: list[tuple[str, int, str]] = []
        total = sum(node.total_volume() for node in self._nodes.values())
        space = RESOLUTION**self.dimensions
        if total != space:
            findings.append(
                ("zone-coverage", -1, f"zones cover volume {total}, space has {space}")
            )
        zones = [
            (nid, zone)
            for nid, node in self._nodes.items()
            for zone in node.zones
        ]
        for i, (nid_a, a) in enumerate(zones):
            for nid_b, b in zones[i + 1 :]:
                overlap = all(
                    min(a.highs[ax], b.highs[ax]) > max(a.lows[ax], b.lows[ax])
                    for ax in range(self.dimensions)
                )
                if overlap:
                    findings.append(
                        (
                            "zone-overlap",
                            nid_a,
                            f"zones of {nid_a} and {nid_b} overlap: {a} vs {b}",
                        )
                    )
        for nid, node in self._nodes.items():
            for other in node.neighbor_ids:
                if other not in self._nodes:
                    findings.append(
                        ("neighbor-liveness", nid, f"lists departed neighbour {other}")
                    )
                elif nid not in self._nodes[other].neighbor_ids:
                    findings.append(
                        (
                            "neighbor-symmetry",
                            nid,
                            f"neighbour sets asymmetric: {nid}/{other}",
                        )
                    )
        return findings

    def check_invariants(self) -> None:
        """Raise when zones fail to tile the space or neighbours are wrong."""
        findings = self.audit()
        if findings:
            _check, _node_id, message = findings[0]
            raise ChordError(message)
