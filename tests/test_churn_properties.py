"""Property-based churn tests: overlays stay consistent under any
membership history hypothesis can invent."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.network import CanOverlay
from repro.core.config import SystemConfig
from repro.core.system import RangeSelectionSystem
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng

# A membership script: True = join a fresh peer, False = remove one.
membership_scripts = st.lists(st.booleans(), min_size=1, max_size=24)


@given(membership_scripts)
@settings(max_examples=25, deadline=None)
def test_chord_ring_consistent_under_any_membership_history(script):
    """``join_peer`` / ``leave_peer`` rebuild the ring after every change:
    whatever the history, every node's routing state (successor lists
    included) is the ground truth, no stored partition is lost and every
    entry sits on its replica set."""
    system = RangeSelectionSystem(
        SystemConfig(n_peers=8, replicas=3, store_on_miss=False, seed=11)
    )
    for start in range(0, 800, 90):
        system.store_partition(IntRange(start, start + 50))
    unique_before = system.unique_partitions()
    ring = system.ring
    boot = ring.node_ids[0]
    counter = 0
    for do_join in script:
        if do_join or len(ring) <= 3:
            counter += 1
            system.join_peer(f"node-{counter}")
        else:
            system.leave_peer(next(nid for nid in ring.node_ids if nid != boot))
    assert ring.audit() == []
    assert system.unique_partitions() == unique_before
    system.check_placement_invariant()
    # Routing resolves every probe to the true successor.
    rng = derive_rng(1, "churn-prop")
    for _ in range(20):
        key = int(rng.integers(0, ring.space.size))
        assert ring.lookup(key, start_id=boot).owner_id == ring.successor_of(key)


@given(membership_scripts)
@settings(max_examples=20, deadline=None)
def test_can_overlay_tiles_under_any_membership_history(script):
    overlay = CanOverlay(dimensions=2)
    overlay.bootstrap("boot")
    boot_id = overlay.node_ids[0]
    counter = 0
    for do_join in script:
        if do_join or len(overlay) <= 2:
            counter += 1
            try:
                overlay.join(f"node-{counter}")
            except Exception:
                continue
        else:
            victim = next(nid for nid in overlay.node_ids if nid != boot_id)
            overlay.leave(victim)
    overlay.check_invariants()
    rng = derive_rng(2, "can-churn-prop")
    ids = overlay.node_ids
    for _ in range(15):
        key = int(rng.integers(0, 2**32))
        start = ids[int(rng.integers(len(ids)))]
        owner, _hops = overlay.lookup(key, start_id=start)
        assert owner == overlay.owner_of(key)
