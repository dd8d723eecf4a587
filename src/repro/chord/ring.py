"""The Chord ring: membership, finger tables and routing.

The ring changes one way: register or remove nodes (:meth:`ChordRing.add_node`,
:meth:`~ChordRing.add_nodes`, :meth:`~ChordRing.remove_node`), then
:meth:`~ChordRing.build` every node's successor, predecessor, successor
list and finger table globally.  This is what the paper's simulations
need — the overlay is constructed once, then lookups are measured — and
what every membership change does: the system's ``join_peer`` /
``leave_peer`` and the live peers' and clients' mirrors of their member
view all rebuild the ring statically.  Chord's incremental join and
stabilization protocol is not implemented; Section 6 of the paper leaves
node joining and leaving to future work.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable

import numpy as np

from repro.chord.hashing import node_id_for_address
from repro.chord.idspace import IdSpace
from repro.chord.lookup import LookupResult
from repro.chord.node import ChordNode
from repro.errors import ChordError, DuplicateNodeError, EmptyRingError, NodeNotFoundError

__all__ = ["ChordRing"]

#: Nodes whose finger tables :meth:`ChordRing.build` computes per array
#: pass: large enough to amortise the numpy calls, small enough that the
#: scratch arrays (rows x m x 8 bytes, a handful of them) stay under a MB.
_BUILD_BLOCK = 1024

#: Keys whose chains :meth:`ChordRing.successor_chain` remembers per
#: membership before the table starts over.
CHAIN_CACHE_LIMIT = 1 << 12


class ChordRing:
    """A simulated Chord overlay over an ``m``-bit identifier space.

    ``successor_list_size`` is the Chord robustness parameter ``r``: every
    node tracks its next ``r`` distinct successors, computed by
    :meth:`build`, so routing and replica placement survive individual
    failures.
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
        #: The ``membership_epoch`` of the last :meth:`build`: while the
        #: two agree, every node's fingers are the ones it computed.
        self._built_epoch = -1
        #: ``key -> chain`` of predicate-free :meth:`successor_chain`
        #: calls, the longest asked for: a shorter chain is its prefix.
        #: Valid for the member set of ``_chains_epoch`` only; emptied
        #: whenever membership moves or it reaches
        #: :data:`CHAIN_CACHE_LIMIT`.
        self._chains: dict[int, list[int]] = {}
        self._chains_epoch = 0

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
        Call :meth:`build` afterwards.
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
        """Remove a node without touching any routing state; call
        :meth:`build` afterwards."""
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

    def successor_chain(
        self,
        key: int,
        count: int,
        predicate: Callable[[int], bool] | None = None,
    ) -> list[int]:
        """The first ``count`` distinct nodes clockwise from ``key``'s owner.

        This is the ground truth a built ring's successor lists agree
        with, and the basis of replica placement: identifier ``key`` is
        stored at ``successor_chain(key, r)``.  ``predicate`` filters
        candidates (e.g. to the peers currently alive), scanning further
        down the ring until ``count`` qualify or membership is exhausted.

        Without a predicate the chain depends on ``key``, ``count`` and
        the member set alone, so it is remembered until membership moves.
        Every call returns a fresh list.
        """
        if count < 1:
            raise ChordError("successor chain length must be at least 1")
        if not self._sorted_ids:
            raise EmptyRingError("ring has no nodes")
        if predicate is None:
            chains = self._chains
            if self._chains_epoch != self.membership_epoch:
                chains.clear()
                self._chains_epoch = self.membership_epoch
            chain = chains.get(key)
            if chain is None or (len(chain) < count and len(chain) < len(self._sorted_ids)):
                chain = self._walk(key, count, None)
                if len(chains) >= CHAIN_CACHE_LIMIT:
                    chains.clear()
                chains[key] = chain
            return chain[:count]
        return self._walk(key, count, predicate)

    def _walk(
        self, key: int, count: int, predicate: Callable[[int], bool] | None
    ) -> list[int]:
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

    def failover_chain(
        self, key: int, count: int, predicate: Callable[[int], bool]
    ) -> list[int]:
        """``successor_chain(key, count)``, then the nodes of
        ``successor_chain(key, count, predicate)`` it lacks, in one walk:
        the replica set a lookup asks first, then the peers ``predicate``
        admits (the alive ones) further down, which repair re-replicates
        onto."""
        if count < 1:
            raise ChordError("successor chain length must be at least 1")
        if not self._sorted_ids:
            raise EmptyRingError("ring has no nodes")
        ids = self._sorted_ids
        n = len(ids)
        index = bisect_left(ids, self.space.wrap(key)) % n
        chain: list[int] = []
        admitted = 0
        for offset in range(n):
            candidate = ids[(index + offset) % n]
            if offset < count:
                chain.append(candidate)
                admitted += predicate(candidate)
            elif admitted == count:
                break
            elif predicate(candidate):
                chain.append(candidate)
                admitted += 1
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
        self._built_epoch = self.membership_epoch

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

        In a table :meth:`build` made at the current membership, finger
        ``i`` is the successor of ``node + 2^i``: at least ``2^i``
        clockwise from ``node``, or ``node`` itself.  No index above
        ``(d(key) - 1).bit_length() - 1`` can then qualify, so the scan
        starts there; any other table is scanned whole.
        :meth:`lookup_path` runs the same scan inline.
        """
        mask = self.space.mask
        node_id = node.node_id
        span = ((key - node_id) & mask) or self.space.size
        fingers = node.fingers
        first = len(fingers)
        if self._built_epoch == self.membership_epoch:
            first = min(first, (span - 1).bit_length())
        for index in range(first - 1, -1, -1):
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
        """Route ``key`` from ``start_id`` (default: lowest node) to its
        owner, as :meth:`lookup_path` does, and report the route."""
        path = self.lookup_path(key, start_id, recorder)
        return LookupResult(
            key=self.space.wrap(key), owner_id=path[-1], hops=len(path) - 1, path=path
        )

    def lookup_path(
        self,
        key: int,
        start_id: int | None = None,
        recorder: Callable[[int, int, str], None] | None = None,
    ) -> tuple[int, ...]:
        """The node ids a lookup of ``key`` from ``start_id`` (default:
        lowest node) traverses, the owner last.

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
        mask = self.space.mask
        key &= mask
        if start_id is None:
            start_id = self._sorted_ids[0]
        current = self.node(start_id)
        if current.successor_id is None:
            raise ChordError("ring not built; call build() first")
        path = [current.node_id]
        nodes = self._nodes
        size = self.space.size
        built = self._built_epoch == self.membership_epoch
        max_hops = 4 * self.space.m + len(nodes)
        # key in (current, successor], as IdSpace.in_half_open has it: the
        # clockwise distances are taken from current + 1, so that
        # successor == current reads as the full circle.
        while ((key - current.node_id - 1) & mask) > (
            (current.successor_id - current.node_id - 1) & mask
        ):
            # _closest_preceding_edge, inline (a built ring's nodes all
            # have m fingers).
            node_id = current.node_id
            span = ((key - node_id) & mask) or size
            fingers = current.fingers
            index = (span - 1).bit_length() - 1 if built else len(fingers) - 1
            while index >= 0:
                next_id = fingers[index]
                if next_id is not None and 0 < ((next_id - node_id) & mask) < span:
                    break
                index -= 1
            else:
                next_id = current.successor_id
            if next_id == node_id:
                break
            if recorder is not None:
                via = f"finger[{index}]" if index >= 0 else "successor"
                recorder(node_id, next_id, via)
            try:
                current = nodes[next_id]
            except KeyError:
                raise NodeNotFoundError(next_id) from None
            path.append(next_id)
            if len(path) > max_hops:
                raise ChordError(f"lookup for {key} exceeded {max_hops} hops")
        owner_id = current.successor_id
        assert owner_id is not None
        if owner_id != current.node_id:
            if recorder is not None:
                recorder(current.node_id, owner_id, "successor")
            path.append(owner_id)
        return tuple(path)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def audit(self) -> list[tuple[str, int, str]]:
        """Walk every node's routing state and collect invariant violations.

        Returns ``(check, node_id, message)`` tuples — empty when the ring
        is globally consistent.  Checks, per node: the successor pointer
        matches ring order, the successor's predecessor agrees (mutual
        agreement), the successor list equals the ground truth,
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
