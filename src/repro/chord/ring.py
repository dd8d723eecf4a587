"""The Chord ring: membership, finger tables, routing, and churn.

Two modes of operation:

- **static build** (:meth:`ChordRing.build`): compute every node's
  successor, predecessor and finger table globally.  This is what the
  paper's simulations need — the overlay is constructed once, then lookups
  are measured.
- **dynamic protocol** (:meth:`join`, :meth:`leave`, :meth:`stabilize_round`):
  the incremental Chord maintenance protocol, exercised by tests to show
  the ring converges to the static build.  No caller in the package runs
  :meth:`join` or :meth:`stabilize_round`: the system's
  ``join_peer`` / ``leave_peer`` add or :meth:`leave` a node and then
  rebuild the ring statically.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.chord.hashing import node_id_for_address
from repro.chord.idspace import IdSpace
from repro.chord.lookup import LookupResult
from repro.chord.node import ChordNode
from repro.errors import ChordError, DuplicateNodeError, EmptyRingError, NodeNotFoundError

__all__ = ["ChordRing", "DepartureHandoff"]

#: Nodes whose finger tables :meth:`ChordRing.build` computes per array
#: pass: large enough to amortise the numpy calls, small enough that the
#: scratch arrays (rows x m x 8 bytes, a handful of them) stay under a MB.
_BUILD_BLOCK = 1024


@dataclass(frozen=True)
class DepartureHandoff:
    """What a graceful :meth:`ChordRing.leave` hands to the rest of the ring.

    ``interval`` is the departed node's owned identifier interval
    ``(predecessor, node]`` — every identifier inside it is now owned by
    ``new_owner_id``.  Callers holding data keyed by identifiers (the
    replication layer, :class:`~repro.core.system.RangeSelectionSystem`)
    use this to migrate entries instead of silently dropping them.
    """

    node: ChordNode
    interval: tuple[int, int]
    new_owner_id: int | None

    def moved(self, identifier: int, space: IdSpace) -> bool:
        """Whether ownership of ``identifier`` moved in this departure."""
        low, high = self.interval
        return space.in_half_open(identifier, low, high)


class ChordRing:
    """A simulated Chord overlay over an ``m``-bit identifier space.

    ``successor_list_size`` is the Chord robustness parameter ``r``: every
    node tracks its next ``r`` distinct successors, maintained by
    :meth:`build`, :meth:`join`, :meth:`leave` and :meth:`stabilize_round`,
    so routing and replica placement survive individual failures.
    """

    def __init__(self, m: int = 32, successor_list_size: int = 4) -> None:
        if successor_list_size < 1:
            raise ChordError("successor_list_size must be at least 1")
        self.space = IdSpace(m)
        self.successor_list_size = successor_list_size
        self._nodes: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        #: Bumped whenever a node is added or removed: whatever was derived
        #: from the member set before is stale.
        self.membership_epoch = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[int]:
        """All node ids in increasing order (copy)."""
        return list(self._sorted_ids)

    def node_at(self, index: int) -> int:
        """The ``index``-th node id in increasing order."""
        return self._sorted_ids[index]

    def node(self, node_id: int) -> ChordNode:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def add_node(self, address: str | None = None, node_id: int | None = None) -> ChordNode:
        """Register a node without wiring any routing state.

        The id defaults to SHA-1 of the address, as the paper prescribes.
        Call :meth:`build` afterwards (static mode) or :meth:`join`
        (dynamic mode).
        """
        if address is None:
            if node_id is None:
                raise ChordError("node needs an address or an explicit id")
            address = f"node-{node_id}"
        if node_id is None:
            node_id = node_id_for_address(address, self.space.m)
        node_id = self.space.wrap(node_id)
        if node_id in self._nodes:
            raise DuplicateNodeError(
                f"identifier {node_id} already taken (address {address!r})"
            )
        node = ChordNode(node_id=node_id, address=address)
        self._nodes[node_id] = node
        insort(self._sorted_ids, node_id)
        self.membership_epoch += 1
        return node

    def add_nodes(self, count: int, address_prefix: str = "peer") -> list[ChordNode]:
        """Add ``count`` nodes named ``<prefix>-0 ...``; skips SHA-1 collisions
        by probing successive suffixes so exactly ``count`` nodes are added.

        The same nodes :meth:`add_node` would add one address at a time,
        with the member list sorted once instead of shifted per node.
        """
        nodes = self._nodes
        m = self.space.m
        added: list[ChordNode] = []
        suffix = 0
        while len(added) < count:
            address = f"{address_prefix}-{suffix}"
            node_id = node_id_for_address(address, m)
            if node_id not in nodes:
                nodes[node_id] = node = ChordNode(node_id=node_id, address=address)
                added.append(node)
            suffix += 1
        self._sorted_ids = sorted(nodes)
        self.membership_epoch += len(added)
        return added

    def remove_node(self, node_id: int) -> ChordNode:
        """Remove a node outright (static mode; use :meth:`leave` under churn)."""
        node = self.node(node_id)
        del self._nodes[node_id]
        index = bisect_left(self._sorted_ids, node_id)
        self._sorted_ids.pop(index)
        self.membership_epoch += 1
        return node

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------

    def successor_of(self, key: int) -> int:
        """The id of the node owning ``key``: the first node id >= key
        clockwise (paper Section 4: "the peer node with the least identifier
        greater than or equal to i")."""
        if not self._sorted_ids:
            raise EmptyRingError("ring has no nodes")
        key = self.space.wrap(key)
        index = bisect_left(self._sorted_ids, key)
        if index == len(self._sorted_ids):
            return self._sorted_ids[0]
        return self._sorted_ids[index]

    def predecessor_of(self, node_id: int) -> int:
        """The id of the node immediately counter-clockwise of ``node_id``."""
        if not self._sorted_ids:
            raise EmptyRingError("ring has no nodes")
        index = bisect_left(self._sorted_ids, self.space.wrap(node_id))
        return self._sorted_ids[index - 1] if index > 0 else self._sorted_ids[-1]

    def owned_interval(self, node_id: int) -> tuple[int, int]:
        """The half-open id interval ``(pred, node]`` this node is
        responsible for."""
        node = self.node(node_id)
        return (self.predecessor_of(node.node_id), node.node_id)

    def successor_chain(
        self,
        key: int,
        count: int,
        predicate: Callable[[int], bool] | None = None,
    ) -> list[int]:
        """The first ``count`` distinct nodes clockwise from ``key``'s owner.

        This is the ground truth a converged ring's successor lists agree
        with, and the basis of replica placement: identifier ``key`` is
        stored at ``successor_chain(key, r)``.  ``predicate`` filters
        candidates (e.g. to the peers currently alive), scanning further
        down the ring until ``count`` qualify or membership is exhausted.
        """
        if count < 1:
            raise ChordError("successor chain length must be at least 1")
        if not self._sorted_ids:
            raise EmptyRingError("ring has no nodes")
        ids = self._sorted_ids
        n = len(ids)
        index = bisect_left(ids, self.space.wrap(key)) % n
        chain: list[int] = []
        for offset in range(n):
            candidate = ids[(index + offset) % n]
            if predicate is not None and not predicate(candidate):
                continue
            chain.append(candidate)
            if len(chain) == count:
                break
        return chain

    def _static_successor_list(self, index: int) -> list[int]:
        """Successor list for the node at sorted position ``index``."""
        ids = self._sorted_ids
        n = len(ids)
        length = min(self.successor_list_size, n - 1)
        return [ids[(index + 1 + i) % n] for i in range(length)]

    # ------------------------------------------------------------------
    # Static construction
    # ------------------------------------------------------------------

    def build(self) -> None:
        """Globally compute successors, predecessors and finger tables."""
        if not self._sorted_ids:
            raise EmptyRingError("cannot build an empty ring")
        ids = self._sorted_ids
        n = len(ids)
        arr = np.asarray(ids, dtype=np.uint64)
        # Every finger start of a block of nodes, ``(id + 2^i) mod 2^m``
        # as a rows x m array (uint64 addition wraps at 2^64 by itself),
        # and the successor of each in one search; past the highest id is
        # the lowest.  Indexing an object array hands back the ints of
        # ``ids`` themselves, a row per node: n objects shared by all
        # tables, not n x m fresh ones.  Blocks bound the scratch arrays.
        powers = np.uint64(1) << np.arange(self.space.m, dtype=np.uint64)
        mask = np.uint64(self.space.mask)
        members = np.asarray(ids, dtype=object)
        fingers: list[list[int]] = []
        for low in range(0, n, _BUILD_BLOCK):
            starts = (arr[low : low + _BUILD_BLOCK, None] + powers) & mask
            positions = np.searchsorted(arr, starts)
            positions[positions == n] = 0
            fingers += members[positions].tolist()
        length = min(self.successor_list_size, n - 1)
        around = ids + ids[:length]
        for index, node_id in enumerate(ids):
            node = self._nodes[node_id]
            node.successor_id = ids[(index + 1) % n]
            node.predecessor_id = ids[index - 1]
            node.successor_list = around[index + 1 : index + 1 + length]
            node.fingers = fingers[index]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _closest_preceding_edge(self, node: ChordNode, key: int) -> tuple[int, int]:
        """Highest finger strictly inside ``(node, key)``, per the protocol.

        Returns ``(next_id, finger_index)``; index ``-1`` means no finger
        qualified and the hop follows the successor pointer.  The interval
        test is :meth:`IdSpace.in_open` written as one comparison of
        clockwise distances from ``node``: ``0 < d(finger) < d(key)``,
        where ``d(key) == 0`` (``key`` is the node itself) denotes the
        full circle.
        """
        mask = self.space.mask
        node_id = node.node_id
        span = ((key - node_id) & mask) or self.space.size
        fingers = node.fingers
        for index in range(len(fingers) - 1, -1, -1):
            finger_id = fingers[index]
            if finger_id is not None and 0 < ((finger_id - node_id) & mask) < span:
                return (finger_id, index)
        if node.successor_id is None:
            raise ChordError(f"node {node_id} has no routing state")
        return (node.successor_id, -1)

    def lookup(
        self,
        key: int,
        start_id: int | None = None,
        recorder: Callable[[int, int, str], None] | None = None,
    ) -> LookupResult:
        """Route ``key`` from ``start_id`` (default: lowest node) to its owner.

        Implements iterative ``find_predecessor`` + final successor hop and
        counts every overlay edge traversed, matching the paper's path-length
        metric.  ``recorder`` (when given) is called once per traversed edge
        as ``recorder(from_id, to_id, via)``, where ``via`` is the routing
        edge used (``finger[i]`` or ``successor``) — the hook the tracing
        layer uses to show a lookup hop by hop; the label is only formatted
        when someone asked for it.
        """
        if not self._sorted_ids:
            raise EmptyRingError("cannot look up in an empty ring")
        key = self.space.wrap(key)
        if start_id is None:
            start_id = self._sorted_ids[0]
        current = self.node(start_id)
        if current.successor_id is None:
            raise ChordError("ring not built; call build() or join() first")
        path = [current.node_id]
        max_hops = 4 * self.space.m + len(self._nodes)
        mask = self.space.mask
        # key in (current, successor], as IdSpace.in_half_open has it: the
        # clockwise distances are taken from current + 1, so that
        # successor == current reads as the full circle.
        while ((key - current.node_id - 1) & mask) > (
            (current.successor_id - current.node_id - 1) & mask
        ):
            next_id, finger = self._closest_preceding_edge(current, key)
            if next_id == current.node_id:
                break
            if recorder is not None:
                via = f"finger[{finger}]" if finger >= 0 else "successor"
                recorder(current.node_id, next_id, via)
            current = self.node(next_id)
            path.append(next_id)
            if len(path) > max_hops:
                raise ChordError(f"lookup for {key} exceeded {max_hops} hops")
        owner_id = current.successor_id
        assert owner_id is not None
        if owner_id != current.node_id:
            if recorder is not None:
                recorder(current.node_id, owner_id, "successor")
            path.append(owner_id)
        return LookupResult(
            key=key, owner_id=owner_id, hops=len(path) - 1, path=tuple(path)
        )

    # ------------------------------------------------------------------
    # Dynamic protocol (join / leave / stabilization)
    # ------------------------------------------------------------------

    def bootstrap(self, address: str) -> ChordNode:
        """Create the first node of a dynamic ring (points at itself)."""
        if self._nodes:
            raise ChordError("bootstrap is only for an empty ring")
        node = self.add_node(address)
        node.successor_id = node.node_id
        node.predecessor_id = node.node_id
        node.fingers = [node.node_id] * self.space.m
        node.successor_list = []
        return node

    def join(self, address: str, via: int) -> ChordNode:
        """Add a node using the incremental protocol: learn the successor by
        routing through an existing node; fingers are filled by
        :meth:`stabilize_round` / :meth:`fix_fingers`."""
        node = self.add_node(address)
        # Ask the bootstrap node to find our successor.  We must route for
        # our own id *before* our membership affects ownership, so exclude
        # ourselves from the search by looking up via the existing node.
        successor = self._lookup_excluding(node.node_id, via, exclude=node.node_id)
        node.successor_id = successor
        node.predecessor_id = None
        node.fingers = [successor] * self.space.m
        node.successor_list = self._adopt_successor_list(node, self.node(successor))
        return node

    def _adopt_successor_list(
        self, node: ChordNode, successor: ChordNode
    ) -> list[int]:
        """Successor list learned from one's successor: ``[succ] + succ's
        list``, truncated, deduplicated, with self and departed ids dropped."""
        adopted: list[int] = []
        for candidate in [successor.node_id, *successor.successor_list]:
            if candidate == node.node_id or candidate not in self._nodes:
                continue
            if candidate in adopted:
                continue
            adopted.append(candidate)
            if len(adopted) == self.successor_list_size:
                break
        return adopted

    def _lookup_excluding(self, key: int, start_id: int, exclude: int) -> int:
        """Route ``key`` ignoring node ``exclude`` (it has no state yet)."""
        current = self.node(start_id)
        guard = 0
        max_hops = 4 * self.space.m + len(self._nodes)
        while True:
            succ = current.successor_id
            if succ is None:
                raise ChordError("ring not initialized")
            if succ == exclude:
                succ = self.node(succ).successor_id
                assert succ is not None
            if self.space.in_half_open(key, current.node_id, succ):
                return succ
            next_id = self._closest_preceding_edge(current, key)[0]
            if next_id in (current.node_id, exclude):
                next_id = current.successor_id
                assert next_id is not None
                if next_id == exclude:
                    next_id = self.node(next_id).successor_id
                    assert next_id is not None
            current = self.node(next_id)
            guard += 1
            if guard > max_hops:
                raise ChordError("excluded lookup exceeded hop bound")

    def stabilize_round(self) -> None:
        """One round of Chord stabilization over every node.

        Each node asks its successor for the successor's predecessor, adopts
        it when closer, notifies the successor of its own existence, and
        refreshes its successor list from the successor's (so list repairs
        propagate one position per round, as in the Chord protocol).
        """
        for node_id in list(self._sorted_ids):
            node = self._nodes.get(node_id)
            if node is None or node.successor_id is None:
                continue
            if node.successor_id not in self._nodes:
                # Successor departed: fall back down the successor list.
                node.successor_id = next(
                    (sid for sid in node.successor_list if sid in self._nodes),
                    node.node_id,
                )
                if node.successor_id == node.node_id and len(self._nodes) > 1:
                    node.successor_id = self.successor_of(
                        self.space.wrap(node.node_id + 1)
                    )
            successor = self.node(node.successor_id)
            candidate = successor.predecessor_id
            if candidate is not None and candidate in self._nodes:
                if self.space.in_open(candidate, node.node_id, successor.node_id):
                    node.successor_id = candidate
                    successor = self.node(candidate)
            self._notify(successor, node.node_id)
            node.successor_list = self._adopt_successor_list(node, successor)

    def _notify(self, node: ChordNode, candidate: int) -> None:
        if node.predecessor_id is None or self.space.in_open(
            candidate, node.predecessor_id, node.node_id
        ):
            node.predecessor_id = candidate

    def fix_fingers(self) -> None:
        """Recompute every node's finger table from current successors."""
        for node_id in self._sorted_ids:
            node = self._nodes[node_id]
            node.fingers = [
                self.successor_of(self.space.finger_start(node_id, i))
                for i in range(self.space.m)
            ]

    def stabilize(self, rounds: int | None = None) -> int:
        """Run stabilization rounds until successors converge (or ``rounds``).

        Returns the number of rounds executed.
        """
        limit = (
            rounds
            if rounds is not None
            else 2 * len(self._nodes) + self.successor_list_size + 4
        )
        executed = 0
        for _ in range(limit):
            before = self._routing_snapshot()
            self.stabilize_round()
            executed += 1
            if before == self._routing_snapshot() and self._successors_correct():
                break
        self.fix_fingers()
        return executed

    def _routing_snapshot(self) -> list[tuple[int, int | None, tuple[int, ...]]]:
        return [
            (nid, self._nodes[nid].successor_id, tuple(self._nodes[nid].successor_list))
            for nid in self._sorted_ids
        ]

    def _successors_correct(self) -> bool:
        ids = self._sorted_ids
        n = len(ids)
        for index, node_id in enumerate(ids):
            node = self._nodes[node_id]
            if node.successor_id != ids[(index + 1) % n]:
                return False
            if node.successor_list != self._static_successor_list(index):
                return False
        return True

    def leave(self, node_id: int) -> DepartureHandoff:
        """Graceful departure: splice the ring around the leaving node.

        Returns a :class:`DepartureHandoff` naming the identifier interval
        whose ownership moved and the node now owning it, so callers can
        migrate the departed node's entries instead of losing them.  The
        departing node is also dropped from every remaining successor list
        (stabilization would flush it eventually; a graceful leave tells
        its neighbours immediately).
        """
        node = self.node(node_id)
        pred_id = self.predecessor_of(node_id)
        succ_id = self.successor_of(self.space.wrap(node_id + 1))
        interval = (pred_id, node_id)
        removed = self.remove_node(node_id)
        if self._nodes:
            if pred_id != node_id and pred_id in self._nodes:
                self._nodes[pred_id].successor_id = (
                    succ_id if succ_id != node_id else pred_id
                )
            if succ_id != node_id and succ_id in self._nodes:
                self._nodes[succ_id].predecessor_id = (
                    pred_id if pred_id != node_id else succ_id
                )
            for survivor in self._nodes.values():
                if node_id in survivor.successor_list:
                    survivor.successor_list = [
                        sid for sid in survivor.successor_list if sid != node_id
                    ]
        new_owner = succ_id if succ_id != node_id and succ_id in self._nodes else None
        return DepartureHandoff(node=removed, interval=interval, new_owner_id=new_owner)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def audit(self) -> list[tuple[str, int, str]]:
        """Walk every node's routing state and collect invariant violations.

        Returns ``(check, node_id, message)`` tuples — empty when the ring
        is globally consistent.  Checks, per node: the successor pointer
        matches ring order, the successor's predecessor agrees (mutual
        agreement), the successor list equals the converged ground truth,
        and every finger entry both targets a live member and is the true
        successor of its finger start (reachability + correctness).  This
        is the walk the health auditor runs; :meth:`check_invariants`
        raises on the first finding instead.
        """
        findings: list[tuple[str, int, str]] = []
        ids = self._sorted_ids
        n = len(ids)
        for index, node_id in enumerate(ids):
            node = self._nodes[node_id]
            expected_succ = ids[(index + 1) % n]
            if node.successor_id != expected_succ:
                findings.append(
                    (
                        "successor",
                        node_id,
                        f"successor {node.successor_id} != {expected_succ}",
                    )
                )
            expected_pred = ids[index - 1]
            if node.predecessor_id != expected_pred:
                findings.append(
                    (
                        "predecessor",
                        node_id,
                        f"predecessor {node.predecessor_id} != {expected_pred}",
                    )
                )
            if (
                node.successor_id is not None
                and node.successor_id in self._nodes
                and self._nodes[node.successor_id].predecessor_id != node_id
            ):
                findings.append(
                    (
                        "successor-agreement",
                        node_id,
                        f"successor {node.successor_id} names "
                        f"{self._nodes[node.successor_id].predecessor_id} as "
                        "predecessor",
                    )
                )
            expected_list = self._static_successor_list(index)
            if node.successor_list != expected_list:
                findings.append(
                    (
                        "successor-list",
                        node_id,
                        f"successor list {node.successor_list} != {expected_list}",
                    )
                )
            for i, finger_id in enumerate(node.fingers):
                if finger_id is not None and finger_id not in self._nodes:
                    findings.append(
                        (
                            "finger-reachability",
                            node_id,
                            f"finger {i} targets departed node {finger_id}",
                        )
                    )
                    continue
                start = self.space.finger_start(node_id, i)
                if finger_id != self.successor_of(start):
                    findings.append(
                        (
                            "finger",
                            node_id,
                            f"finger {i} is {finger_id}, expected "
                            f"{self.successor_of(start)}",
                        )
                    )
        return findings

    def check_invariants(self) -> None:
        """Raise :class:`ChordError` if routing state is globally inconsistent."""
        findings = self.audit()
        if findings:
            _check, node_id, message = findings[0]
            raise ChordError(f"node {node_id} {message}")
