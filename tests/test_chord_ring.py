"""Tests for the Chord ring: construction, ownership, routing."""

from __future__ import annotations

import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.lookup import LookupResult
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.errors import (
    ChordError,
    DuplicateNodeError,
    EmptyRingError,
    NodeNotFoundError,
)
from repro.util.rng import derive_rng


def built_ring(n: int, m: int = 16) -> ChordRing:
    ring = ChordRing(m=m)
    ring.add_nodes(n)
    ring.build()
    return ring


class TestMembership:
    def test_add_and_lookup_node(self):
        ring = ChordRing()
        node = ring.add_node("peer-0")
        assert node.node_id in ring
        assert ring.node(node.node_id) is node

    def test_add_nodes_exact_count_despite_collisions(self):
        ring = ChordRing(m=8)  # tiny space: collisions certain
        added = ring.add_nodes(100)
        assert len(added) == 100
        assert len(ring) == 100

    @pytest.mark.parametrize("m", [8, 16, 32])
    @pytest.mark.parametrize("count", [0, 1, 3, 150])
    @pytest.mark.parametrize("resident", [0, 40])
    def test_add_nodes_equals_the_add_node_loop_it_replaced(self, m, count, resident):
        def one_by_one(ring: ChordRing, count: int, prefix: str) -> list[ChordNode]:
            added, suffix = [], 0
            while len(added) < count:
                try:
                    added.append(ring.add_node(f"{prefix}-{suffix}"))
                except DuplicateNodeError:
                    pass  # m = 8: 150 + 40 ids out of 256 collide often
                suffix += 1
            return added

        bulk, loop = ChordRing(m=m), ChordRing(m=m)
        # Members already on the ring must be skipped like any collision,
        # and stay sorted in among the new ones.
        one_by_one(bulk, resident, "resident")
        one_by_one(loop, resident, "resident")
        epoch = bulk.membership_epoch
        added = bulk.add_nodes(count)
        expected = one_by_one(loop, count, "peer")
        assert added == expected  # same ids and addresses, in probe order
        assert bulk.membership_epoch == epoch + count == loop.membership_epoch
        assert bulk.node_ids == loop.node_ids == sorted(bulk.node_ids)
        if len(bulk):
            bulk.build()
            loop.build()
            for node_id in loop.node_ids:
                assert bulk.node(node_id) == loop.node(node_id)  # fingers, successors

    def test_duplicate_id_rejected(self):
        ring = ChordRing()
        ring.add_node(node_id=5)
        with pytest.raises(DuplicateNodeError):
            ring.add_node(node_id=5)

    def test_node_without_identity_rejected(self):
        with pytest.raises(ChordError):
            ChordRing().add_node()

    def test_unknown_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            ChordRing().node(7)

    def test_remove_node(self):
        ring = ChordRing()
        node = ring.add_node(node_id=9)
        ring.remove_node(node.node_id)
        assert node.node_id not in ring


class TestOwnership:
    def test_successor_of_simple(self):
        ring = ChordRing(m=8)
        for nid in (10, 100, 200):
            ring.add_node(node_id=nid)
        assert ring.successor_of(5) == 10
        assert ring.successor_of(10) == 10  # least id >= key
        assert ring.successor_of(150) == 200
        assert ring.successor_of(201) == 10  # wraps

    def test_empty_ring_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().successor_of(1)


class TestStaticBuild:
    def test_invariants_hold_after_build(self):
        ring = built_ring(200)
        ring.check_invariants()

    def test_build_empty_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().build()

    def test_single_node_ring(self):
        ring = built_ring(1)
        node = ring.node(ring.node_ids[0])
        assert node.successor_id == node.node_id
        assert node.predecessor_id == node.node_id
        result = ring.lookup(123, start_id=node.node_id)
        assert result.owner_id == node.node_id
        assert result.hops == 0

    def test_two_node_ring_routing(self):
        ring = ChordRing(m=8)
        ring.add_node(node_id=10)
        ring.add_node(node_id=200)
        ring.build()
        result = ring.lookup(150, start_id=10)
        assert result.owner_id == 200
        assert result.hops == 1

    @pytest.mark.parametrize("m", [8, 32, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_build_equals_the_per_node_loop_it_replaced(self, m, n, monkeypatch):
        """``build`` computes the tables in array passes over blocks of
        nodes; the loop it replaced, kept here verbatim, is the oracle."""
        # 1000 nodes are many blocks and a ragged last one.
        monkeypatch.setattr("repro.chord.ring._BUILD_BLOCK", 96)
        ring = ChordRing(m=m, successor_list_size=4)
        mask = ring.space.mask
        # Both ends of the identifier space, where the starts wrap.
        for node_id in (0, mask)[:n]:
            ring.add_node(node_id=node_id)
        rng = random.Random(m * 10_007 + n)
        while len(ring) < min(n, mask + 1):  # m = 8 has room for 256
            try:
                ring.add_node(node_id=rng.randrange(mask + 1))
            except DuplicateNodeError:
                pass
        ring.build()

        ids = ring._sorted_ids
        n = len(ids)
        arr = np.asarray(ids, dtype=np.uint64)
        for index, node_id in enumerate(ids):
            node = ring._nodes[node_id]
            assert node.successor_id == ids[(index + 1) % n]
            assert node.predecessor_id == ids[index - 1]
            assert node.successor_list == ring._static_successor_list(index)
            starts = [
                ring.space.finger_start(node_id, i) for i in range(ring.space.m)
            ]
            positions = np.searchsorted(arr, np.asarray(starts, dtype=np.uint64))
            expected = [
                ids[int(pos)] if pos < n else ids[0] for pos in positions
            ]
            assert node.fingers == expected
            assert all(type(finger) is int for finger in node.fingers)
            assert all(type(peer) is int for peer in node.successor_list)
        ring.check_invariants()


class TestLookup:
    def test_owner_matches_successor_for_random_keys(self, rng):
        ring = built_ring(150)
        ids = ring.node_ids
        for _ in range(300):
            key = int(rng.integers(0, ring.space.size))
            start = ids[int(rng.integers(len(ids)))]
            result = ring.lookup(key, start_id=start)
            assert result.owner_id == ring.successor_of(key)

    def test_path_starts_at_origin_and_ends_at_owner(self, rng):
        ring = built_ring(80)
        start = ring.node_ids[0]
        result = ring.lookup(12345, start_id=start)
        assert result.path[0] == start
        assert result.path[-1] == result.owner_id
        assert result.hops == len(result.path) - 1

    def test_mean_hops_scale_logarithmically(self):
        """Paper Fig 12a: mean path length ~ (1/2) log2 N."""
        rng = derive_rng(17, "hops")
        ring = ChordRing(m=32)
        ring.add_nodes(1000)
        ring.build()
        ids = ring.node_ids
        hops = []
        for _ in range(1500):
            key = int(rng.integers(0, 2**32))
            start = ids[int(rng.integers(len(ids)))]
            hops.append(ring.lookup(key, start_id=start).hops)
        mean = sum(hops) / len(hops)
        expected = 0.5 * math.log2(1000)
        assert expected - 1.0 < mean < expected + 2.0

    def test_lookup_without_build_raises(self):
        ring = ChordRing()
        ring.add_node(node_id=1)
        with pytest.raises(ChordError):
            ring.lookup(5, start_id=1)

    def test_lookup_empty_raises(self):
        with pytest.raises(EmptyRingError):
            ChordRing().lookup(5)

    @given(st.integers(0, (1 << 16) - 1))
    @settings(max_examples=40, deadline=None)
    def test_lookup_correct_for_any_key(self, key):
        ring = _PROPERTY_RING
        result = ring.lookup(key, start_id=ring.node_ids[3])
        assert result.owner_id == ring.successor_of(key)


class TestLookupResult:
    def test_validates_hop_count(self):
        with pytest.raises(ValueError):
            LookupResult(key=1, owner_id=2, hops=5, path=(1, 2))

    def test_validates_terminal_node(self):
        with pytest.raises(ValueError):
            LookupResult(key=1, owner_id=9, hops=1, path=(1, 2))


# A moderately sized ring shared by property-based lookup tests.
_PROPERTY_RING = built_ring(60)


# ----------------------------------------------------------------------
# Routing oracle: the masked-distance finger scan against IdSpace.in_open
# ----------------------------------------------------------------------


def reference_edge(ring: ChordRing, node, key: int) -> tuple[int, int]:
    """The finger scan as ``IdSpace.in_open`` states it."""
    for index in range(len(node.fingers) - 1, -1, -1):
        finger_id = node.fingers[index]
        if finger_id is not None and ring.space.in_open(
            finger_id, node.node_id, key
        ):
            return (finger_id, index)
    return (node.successor_id, -1)


def reference_lookup(ring: ChordRing, key: int, start_id: int):
    """``ChordRing.lookup`` on ``IdSpace``'s interval methods: the path and
    the routing edge of every hop."""
    space = ring.space
    key = space.wrap(key)
    current = ring.node(start_id)
    path, vias = [current.node_id], []
    max_hops = 4 * space.m + len(ring)
    while not space.in_half_open(key, current.node_id, current.successor_id):
        next_id, index = reference_edge(ring, current, key)
        if next_id == current.node_id:
            break
        vias.append(f"finger[{index}]" if index >= 0 else "successor")
        current = ring.node(next_id)
        path.append(current.node_id)
        if len(path) > max_hops:
            raise ChordError("hop bound")
    if current.successor_id != current.node_id:
        vias.append("successor")
        path.append(current.successor_id)
    return (tuple(path), vias)


def outcome(fn):
    """What ``fn`` returned, or the kind of routing error it raised (a
    stale finger may name a departed node; a torn ring may loop)."""
    try:
        return ("ok", fn())
    except (ChordError, NodeNotFoundError) as error:
        return ("raised", type(error))


def scarred_ring(seed: int, m: int) -> tuple[ChordRing, random.Random]:
    """A ring whose routing state is deliberately not converged: a static
    build, then late peers that know only their successor and departures,
    with no rebuild after either, then a few finger slots blanked."""
    rnd = random.Random(seed)
    ring = ChordRing(m=m)
    while len(ring) < 12:
        try:
            ring.add_node(node_id=rnd.randrange(1 << m))
        except DuplicateNodeError:
            pass  # m = 8 leaves little room
    ring.build()
    for index in range(rnd.randrange(4)):
        try:
            node = ring.add_node(f"late-{seed}-{index}")
        except DuplicateNodeError:
            continue
        # What a Chord join hands a newcomer: its successor, which every
        # finger names until the fingers are fixed.
        node.successor_id = ring.successor_of(node.node_id + 1)
        node.fingers = [node.successor_id] * m
    for _ in range(rnd.randrange(3)):
        ring.remove_node(rnd.choice(ring.node_ids))
    for node_id in ring.node_ids:
        fingers = ring.node(node_id).fingers
        for slot in range(len(fingers)):
            if rnd.random() < 0.05:
                fingers[slot] = None
    return ring, rnd


def probe_keys(ring: ChordRing, rnd: random.Random) -> list[int]:
    size = ring.space.size
    ids = ring.node_ids
    keys = [rnd.randrange(size) for _ in range(12)]
    keys += ids[:4]  # key == node_id: from that node, the full circle
    keys += [ids[0] - 1, ids[-1] + 1, 0, size - 1]
    keys += [size, size + ids[1], -3, 3 * size + 17]  # past the wrap
    return keys


#: Sizes of the freshly built rings the oracle also checks, 1 to 400
#: peers; an 8-bit space holds at most 256.
BUILT_SIZES = (1, 2, 3, 7, 64, 400)


def fresh_ring(peers: int, m: int) -> tuple[ChordRing, random.Random]:
    """A ring as systems make it, left as :meth:`ChordRing.build` made
    it: SHA-1 ids, or random ones for odd sizes."""
    rnd = random.Random(peers * 131 + m)
    ring = ChordRing(m=m)
    peers = min(peers, 200) if m == 8 else peers
    if peers % 2:
        while len(ring) < peers:
            try:
                ring.add_node(node_id=rnd.randrange(1 << m))
            except DuplicateNodeError:
                pass
    else:
        ring.add_nodes(peers)
    ring.build()
    return ring, rnd


def built_probe_keys(ring: ChordRing, rnd: random.Random) -> list[int]:
    """``probe_keys`` plus every node id, each neighbour of a node id and
    each id one full turn further."""
    size = ring.space.size
    ids = ring.node_ids
    keys = probe_keys(ring, rnd) if len(ids) > 1 else [0, size - 1, size + 5, -3]
    for node_id in rnd.sample(ids, min(len(ids), 12)):
        keys += [node_id, node_id - 1, node_id + 1, node_id + size]
    return keys


class TestRoutingOracle:
    @pytest.mark.parametrize("m", [8, 32, 64])
    @pytest.mark.parametrize("seed", range(12))
    def test_finger_choice_matches_in_open(self, m, seed):
        ring, rnd = scarred_ring(seed, m)
        for key in probe_keys(ring, rnd):
            for node_id in ring.node_ids:
                node = ring.node(node_id)
                assert ring._closest_preceding_edge(node, key) == (
                    reference_edge(ring, node, key)
                )
                # Finger by finger: each slot alone qualifies exactly
                # when in_open says so.
                for finger_id in node.fingers:
                    if finger_id is None:
                        continue
                    alone = ChordNode(
                        node_id, node.address, successor_id=node_id,
                        fingers=[finger_id],
                    )
                    chosen = ring._closest_preceding_edge(alone, key)[1] == 0
                    assert chosen == ring.space.in_open(finger_id, node_id, key)

    @pytest.mark.parametrize("m", [8, 32, 64])
    @pytest.mark.parametrize("seed", range(12))
    def test_paths_and_vias_match_with_and_without_recorder(self, m, seed):
        ring, rnd = scarred_ring(seed, m)
        for key in probe_keys(ring, rnd):
            for start_id in ring.node_ids:
                expected = outcome(lambda: reference_lookup(ring, key, start_id))
                vias: list[str] = []
                edges: list[tuple[int, int]] = []

                def recorder(hop_from, hop_to, via):
                    edges.append((hop_from, hop_to))
                    vias.append(via)

                recorded = outcome(
                    lambda: ring.lookup(key, start_id, recorder=recorder).path
                )
                silent = outcome(lambda: ring.lookup(key, start_id).path)
                assert silent == recorded
                if expected[0] == "raised":
                    assert recorded == expected
                    continue
                path, expected_vias = expected[1]
                assert recorded == ("ok", path)
                assert vias == expected_vias
                assert edges == list(zip(path, path[1:]))

    @pytest.mark.parametrize("m", [8, 32, 64])
    @pytest.mark.parametrize("peers", BUILT_SIZES)
    def test_finger_choice_matches_in_open_on_built_rings(self, m, peers):
        # A built table's scan starts at the span's top bit; the choice
        # must still be the whole table's.
        ring, rnd = fresh_ring(peers, m)
        ids = ring.node_ids
        lonely = rnd.sample(ids, min(len(ids), 6))
        for key in built_probe_keys(ring, rnd):
            for node_id in ids:
                node = ring.node(node_id)
                assert ring._closest_preceding_edge(node, key) == (
                    reference_edge(ring, node, key)
                )
            for node_id in lonely:
                for finger_id in ring.node(node_id).fingers:
                    alone = ChordNode(
                        node_id, "alone", successor_id=node_id, fingers=[finger_id]
                    )
                    chosen = ring._closest_preceding_edge(alone, key)[1] == 0
                    assert chosen == ring.space.in_open(finger_id, node_id, key)

    @pytest.mark.parametrize("m", [8, 32, 64])
    @pytest.mark.parametrize("peers", BUILT_SIZES)
    def test_paths_and_vias_match_on_built_rings(self, m, peers):
        ring, rnd = fresh_ring(peers, m)
        ids = ring.node_ids
        starts = rnd.sample(ids, min(len(ids), 16))
        for key in built_probe_keys(ring, rnd):
            for start_id in starts:
                path, expected_vias = reference_lookup(ring, key, start_id)
                vias: list[str] = []
                recorded = ring.lookup(
                    key, start_id, recorder=lambda _a, _b, via: vias.append(via)
                ).path
                assert recorded == path == ring.lookup_path(key, start_id)
                assert vias == expected_vias


# ----------------------------------------------------------------------
# The predecessor rule: a built table's hop reads one finger
# ----------------------------------------------------------------------


def assert_routes_as_reference(ring: ChordRing, key: int, start_id: int) -> None:
    """``lookup`` with a recorder, without one and ``reference_lookup``
    agree on the path and on every hop's edge and label."""
    path, expected_vias = reference_lookup(ring, key, start_id)
    vias: list[str] = []
    edges: list[tuple[int, int]] = []

    def recorder(hop_from, hop_to, via):
        edges.append((hop_from, hop_to))
        vias.append(via)

    assert ring.lookup(key, start_id, recorder=recorder).path == path
    assert ring.lookup_path(key, start_id) == path
    assert vias == expected_vias
    assert edges == list(zip(path, path[1:]))


class TestPredecessorRule:
    @pytest.mark.parametrize("m", [8, 32, 64])
    def test_blank_slots_route_as_the_reference(self, m):
        # No membership change: the rule reads the table, and a hop that
        # meets a blanked slot scans from there.
        ring, rnd = fresh_ring(400, m)
        epoch = ring.membership_epoch
        for node_id in ring.node_ids:
            fingers = ring.node(node_id).fingers
            for slot in range(len(fingers)):
                if rnd.random() < 0.1:
                    fingers[slot] = None
        assert ring.membership_epoch == epoch
        starts = rnd.sample(ring.node_ids, 6)
        for key in built_probe_keys(ring, rnd):
            for start_id in starts:
                assert_routes_as_reference(ring, key, start_id)

    def test_a_blank_first_hop_falls_back_to_the_scan(self):
        ring, _rnd = fresh_ring(64, 32)
        ids = ring.node_ids
        start_id, key = ids[0], ids[40]
        index = ((ids[39] - start_id) & ring.space.mask).bit_length() - 1
        assert ring.lookup(key, start_id).path[1] == ring.node(start_id).fingers[index]
        ring.node(start_id).fingers[index] = None
        _path, vias = reference_lookup(ring, key, start_id)
        assert vias[0] != f"finger[{index}]"
        assert_routes_as_reference(ring, key, start_id)

    @pytest.mark.parametrize("m", [8, 32, 64])
    def test_a_ring_changed_since_build_routes_by_the_scan(self, m):
        ring, rnd = fresh_ring(64, m)
        ids = ring.node_ids
        ring.remove_node(ids[20])
        gap = next(i for i in range(len(ids) - 1) if ids[i + 1] - ids[i] > 1)
        late = ring.add_node(node_id=ids[gap] + 1)  # no routing state
        starts = [node_id for node_id in ring.node_ids if node_id != late.node_id]
        for key in built_probe_keys(ring, rnd) + [late.node_id, ids[20]]:
            for start_id in rnd.sample(starts, 8):
                expected = outcome(lambda: reference_lookup(ring, key, start_id))
                vias: list[str] = []
                recorded = outcome(
                    lambda: ring.lookup(
                        key, start_id, recorder=lambda _a, _b, via: vias.append(via)
                    ).path
                )
                assert outcome(lambda: ring.lookup_path(key, start_id)) == recorded
                if expected[0] == "raised":
                    assert recorded == expected
                    continue
                path, expected_vias = expected[1]
                assert recorded == ("ok", path)
                assert vias == expected_vias
                if key == late.node_id:
                    # The late node owns its id, but no table names it.
                    assert late.node_id not in path

    def test_hops_on_a_built_10k_ring_stay_within_the_halving_bound(self):
        ring = ChordRing(m=32)
        ring.add_nodes(10_000)
        ring.build()
        ids = ring.node_ids
        size, mask = ring.space.size, ring.space.mask
        rnd = random.Random(10_000)
        keys = [rnd.randrange(size) for _ in range(400)]
        for node_id in rnd.sample(ids, 150):
            keys += [node_id, node_id - 1, node_id + 1, node_id + size]
        keys += [0, size - 1, -1, size, ids[0], ids[-1] + 1]
        for key in keys:
            start_id = rnd.choice(ids)
            path, _vias = reference_lookup(ring, key, start_id)
            assert ring.lookup_path(key, start_id) == path
            pred = ids[bisect.bisect_left(ids, key & mask) - 1]
            assert len(path) - 1 <= ((pred - start_id) & mask).bit_length() + 1
