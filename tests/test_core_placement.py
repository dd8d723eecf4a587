"""The placement planner: one pure diff behind every repair/rebalance path."""

from __future__ import annotations

import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.overlays import ChordRouter
from repro.core.placement import (
    Action,
    HashedPlacement,
    ReplicaPlacement,
    audit_placement,
    plan_placement,
)
from repro.db.partition import PartitionDescriptor
from repro.errors import ConfigError, HashFamilyError
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

ID_SPACE = 64


def desc(n: int) -> PartitionDescriptor:
    return PartitionDescriptor("R", "value", IntRange(n, n + 9))


@st.composite
def worlds(draw):
    """A ring, a crash set, a replication factor and a holder map in
    arbitrary disarray: copies anywhere, flags at random."""
    nodes = sorted(
        draw(st.sets(st.integers(0, ID_SPACE - 1), min_size=1, max_size=12))
    )
    crashed = draw(st.sets(st.sampled_from(nodes)))
    replicas = draw(st.integers(1, 4))
    keys = draw(
        st.sets(
            st.tuples(st.integers(0, ID_SPACE - 1), st.integers(0, 3)),
            max_size=10,
        )
    )
    held = {
        (identifier, desc(n)): draw(
            st.dictionaries(st.sampled_from(nodes), st.booleans(), min_size=1)
        )
        for identifier, n in sorted(keys)
    }
    return nodes, crashed, replicas, held


def successors(nodes, identifier):
    """The ring walked clockwise from ``identifier``'s owner."""
    start = next(
        (i for i, node in enumerate(nodes) if node >= identifier), 0
    )
    return nodes[start:] + nodes[:start]


def correct(flags, wanted) -> bool:
    return list(flags) and set(flags) == set(wanted) and all(
        flags[node] == (rank == 0) for rank, node in enumerate(wanted)
    )


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_applying_the_plan_converges_and_leaves_correct_keys_alone(world):
    nodes, crashed, replicas, held = world

    def desired(identifier):
        alive = [n for n in successors(nodes, identifier) if n not in crashed]
        return alive[:replicas]

    # What the planner is shown: live holders only.
    state = {
        key: {n: flag for n, flag in flags.items() if n not in crashed}
        for key, flags in held.items()
    }
    already_correct = {
        key for key, flags in state.items() if correct(flags, desired(key[0]))
    }
    plan = list(plan_placement(state, desired))

    lost = set()
    for action in plan:
        key = (action.identifier, action.descriptor)
        assert key not in already_correct, "a correct key was touched"
        flags = state[key]
        if action.kind == "copy":
            assert action.source in flags and action.node not in flags
            assert action.node not in crashed
            flags[action.node] = action.primary
        elif action.kind == "set_role":
            assert flags[action.node] != action.primary
            flags[action.node] = action.primary
        elif action.kind == "drop":
            del flags[action.node]
        else:
            assert action.kind == "lost"
            lost.add(key)

    assert lost == {key for key, flags in held.items() if set(flags) <= crashed}
    for key, flags in state.items():
        if key in lost:
            assert flags == {}
        else:
            # Exactly the desired set, one primary, at rank 0.
            assert correct(flags, desired(key[0])), (key, flags)
    assert {a.kind for a in plan_placement(state, desired)} <= {"lost"}


# ---------------------------------------------------------------------------
# The audit grades the plan's actions, and agrees with a copy-by-copy walk
# ---------------------------------------------------------------------------


class WorldRing(ReplicaPlacement):
    """A world's ring as a replica placement: identifiers placed directly."""

    def __init__(self, nodes, replicas) -> None:
        self.config = SimpleNamespace(placement="direct", replicas=replicas)
        self.router = self
        self.node_ids = nodes

    def replica_set(self, position, count, predicate=None):
        chain = successors(self.node_ids, position)
        return [n for n in chain if predicate is None or predicate(n)][:count]


SEVERITY = {
    "replica-deficit": "warning",
    "replica-loss": "critical",
    "primary-flag": "warning",
    "stale-copy": "info",
    "replica-placement": "critical",
}


def walked_by_hand(nodes, crashed, replicas, held):
    """The auditor's rules copy by copy, as the store walk applied them:
    a copy outside ``owners | alive targets`` is stale within the first
    ``replicas + crashed`` chain positions and misplaced beyond; a flag is
    checked against the owner while nothing is crashed; then the missing
    copies per identifier on alive targets, then the entries with no live
    holder."""
    per_copy = Counter()
    missing = Counter()
    lost = []
    for (identifier, descriptor), flags in held.items():
        chain = successors(nodes, identifier)
        owners = chain[:replicas]
        targets = [n for n in chain if n not in crashed][:replicas]
        allowed = set(owners) | set(targets)
        for node, primary in flags.items():
            if node not in allowed:
                depth = replicas + len(crashed)
                check = "stale-copy" if node in chain[:depth] else "replica-placement"
                per_copy[(check, identifier, descriptor, node)] += 1
            elif not crashed and primary != (node == owners[0]):
                per_copy[("primary-flag", identifier, descriptor, node)] += 1
        live = {n for n in flags if n not in crashed}
        if not live:
            lost.append((identifier, descriptor))
        else:
            missing[identifier] += sum(1 for n in targets if n not in live)
    tail = [("replica-deficit", i, None) for i, n in sorted(missing.items()) if n]
    tail += [
        ("replica-loss", i, d) for i, d in sorted(lost, key=lambda k: (k[0], str(k[1])))
    ]
    return per_copy, tail, missing


@given(worlds())
@settings(max_examples=300, deadline=None)
def test_audit_matches_the_copy_by_copy_walk(world):
    nodes, crashed, replicas, held = world
    findings = list(
        audit_placement(held, WorldRing(nodes, replicas), lambda n: n not in crashed)
    )
    per_copy, tail, missing = walked_by_hand(nodes, crashed, replicas, held)
    assert all(f.severity == SEVERITY[f.check] for f in findings)
    graded = [f for f in findings if f.node is not None]
    # Per-copy findings first, then the deficits and losses in their order.
    assert findings[: len(graded)] == graded
    assert Counter(
        (f.check, f.identifier, f.descriptor, f.node) for f in graded
    ) == per_copy
    rest = findings[len(graded):]
    assert [(f.check, f.identifier, f.descriptor) for f in rest] == tail
    for f in rest:
        if f.check == "replica-deficit":
            count = missing[f.identifier]
            assert f.message.startswith(f"{count} cop{'y' if count == 1 else 'ies'} ")


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_a_world_the_plan_was_applied_to_audits_clean(world):
    nodes, crashed, replicas, held = world
    ring = WorldRing(nodes, replicas)

    def alive(n):
        return n not in crashed

    state = {
        key: {n: flag for n, flag in flags.items() if alive(n)}
        for key, flags in held.items()
    }
    for action in list(plan_placement(state, lambda i: ring.replica_targets(i, alive))):
        flags = state[(action.identifier, action.descriptor)]
        if action.kind in ("copy", "set_role"):
            flags[action.node] = action.primary
        elif action.kind == "drop":
            del flags[action.node]
    lost = {key for key, flags in state.items() if not flags}
    placed = {key: flags for key, flags in state.items() if flags}
    assert list(audit_placement(placed, ring, alive)) == []
    # The down holders, left where they were, are all that is left to say.
    for key, flags in held.items():
        state[key].update((n, f) for n, f in flags.items() if not alive(n))
    for f in audit_placement(state, ring, alive):
        key = (f.identifier, f.descriptor)
        assert (f.check == "replica-loss" and key in lost) or f.node in crashed, f


def test_an_audit_with_everyone_up_reads_the_nominal_replica_set():
    ring = WorldRing([10, 20, 30, 40], replicas=2)
    a, b = (15, desc(0)), (25, desc(1))
    holders = {a: {20: False, 30: True, 40: False}, b: {30: True}}
    assert [(f.check, f.identifier, f.node) for f in audit_placement(holders, ring)] == [
        ("primary-flag", 15, 20),
        ("primary-flag", 15, 30),
        ("replica-placement", 15, 40),
        ("replica-deficit", 25, None),
    ]


def test_plan_order_is_holders_order_then_rank_then_drops():
    a, b = (5, desc(0)), (9, desc(1))
    holders = {a: {30: False, 10: True}, b: {20: True}}
    plan = list(plan_placement(holders, lambda identifier: [10, 20]))
    assert plan == [
        Action("copy", *a, node=20, primary=False, source=30),
        Action("drop", *a, node=30),
        Action("copy", *b, node=10, primary=True, source=20),
        Action("set_role", *b, node=20, primary=False),
    ]


# ---------------------------------------------------------------------------
# The hashing front is handed over, not rebuilt, when nothing it is built
# from changed
# ---------------------------------------------------------------------------


def test_front_is_reused_across_configs_that_hash_alike():
    old = HashedPlacement(SystemConfig(n_peers=8, k=4))
    new = HashedPlacement(SystemConfig(n_peers=9, replicas=3, k=4), previous=old)
    assert new.scheme is old.scheme
    assert new.config.replicas == 3  # placement still follows its own config


@pytest.mark.parametrize(
    "change",
    [
        {"family": "linear"},
        {"domain": Domain("value", 0, 500)},
        {"l": 2},
        {"k": 5},
        {"seed": 7},
        {"id_bits": 24},
    ],
    ids=lambda change: next(iter(change)),
)
def test_front_is_rebuilt_when_a_hashing_field_changes(change):
    (field,) = change
    assert field in HashedPlacement.HASHING_FIELDS
    base = SystemConfig(n_peers=8, k=4)
    config = dataclasses.replace(base, **change)
    old = HashedPlacement(base)
    new = HashedPlacement(config, previous=old)
    fresh = HashedPlacement(config)
    assert new.scheme is not old.scheme
    for r in (IntRange(0, 0), IntRange(17, 410), IntRange(0, 500)):
        assert new.identifiers_for(r) == fresh.identifiers_for(r)


@pytest.mark.parametrize(
    "family,domain,error",
    [
        ("approx-min-wise", Domain("value", 0, 1 << 32), ConfigError),
        ("min-wise", Domain("value", -5, 1000), ConfigError),
        ("table", Domain("value", -1, 1000), ConfigError),
        ("linear", Domain("value", 0, 10**12), HashFamilyError),
    ],
    ids=["past-2^32", "negative", "table-negative", "linear-modulus-past-2^32"],
)
def test_a_domain_past_the_familys_space_is_rejected(family, domain, error):
    with pytest.raises(error):
        HashedPlacement(SystemConfig(n_peers=8, k=4, family=family, domain=domain))


# ---------------------------------------------------------------------------
# Failover candidates: one walk down the ring, the same list as two
# ---------------------------------------------------------------------------


class RingPlacement(ReplicaPlacement):
    """A built Chord ring of ``peers`` nodes as a replica placement, the
    identifiers rehashed onto it as the system places them."""

    def __init__(self, peers: int, replicas: int) -> None:
        self.config = SimpleNamespace(placement="rehash", id_bits=32, replicas=replicas)
        self.router = ChordRouter.build(peers, m=32)


def two_walk_candidates(placement, identifier, is_alive):
    """The nominal replica set, then the alive targets it lacks: one walk
    for each, as failover planning was first written."""
    candidates = placement.replica_owners(identifier)
    if placement.config.replicas > 1 and is_alive is not None:
        for peer in placement.replica_targets(identifier, is_alive):
            if peer not in candidates:
                candidates.append(peer)
    return candidates


@st.composite
def failover_worlds(draw):
    """A ring of 1-40 peers, 1-5 replicas, an identifier and a crashed set:
    nobody, everybody, the owner and more, or any subset."""
    placement = RingPlacement(draw(st.integers(1, 40)), draw(st.integers(1, 5)))
    identifier = draw(st.integers(0, 2**32 - 1))
    nodes = placement.router.node_ids
    owner = placement.replica_owners(identifier)[0]
    crashed = draw(
        st.one_of(
            st.just(frozenset()),
            st.just(frozenset(nodes)),
            st.sets(st.sampled_from(nodes)).map(lambda more: frozenset(more | {owner})),
            st.sets(st.sampled_from(nodes)).map(frozenset),
        )
    )
    return placement, identifier, crashed


@given(failover_worlds())
@settings(max_examples=300, deadline=None)
def test_one_walk_plans_the_failover_candidates_two_walks_did(world):
    placement, identifier, crashed = world

    def is_alive(node):
        return node not in crashed

    expected = two_walk_candidates(placement, identifier, is_alive)
    placed = placement.place_identifier(identifier)
    assert placement.failover_candidates(identifier, is_alive) == expected
    assert placement.failover_candidates(identifier, is_alive, placed=placed) == expected
    assert placement.failover_candidates(identifier) == placement.replica_owners(identifier)
