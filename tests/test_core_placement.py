"""The placement planner: one pure diff behind every repair/rebalance path."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.placement import Action, HashedPlacement, plan_placement
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

