"""The SWIM membership state machine: precedence, refutation, tombstones.

Pure state-machine tests — no sockets, caller-supplied clocks — covering
the merge rules everything else leans on: incarnation precedence,
dead > suspect > alive at equal incarnations, self-accusation refutation,
tombstone resurrection, and the graceful-leave self-declared death.
"""

from __future__ import annotations

from repro.rpc.swim import ALIVE, DEAD, SUSPECT, MembershipTable


def table_of(*addresses: str) -> MembershipTable:
    table = MembershipTable("a", "127.0.0.1", 1000)
    for index, address in enumerate(addresses):
        if address != "a":
            table.add(address, "127.0.0.1", 1001 + index)
    return table


def test_self_is_alive_at_incarnation_zero():
    table = table_of("a")
    assert table.state_of("a") == ALIVE
    assert table.incarnation == 0


def test_add_and_remove_track_epoch():
    table = table_of("a")
    epoch = table.epoch
    assert table.add("b", "127.0.0.1", 1001)
    assert table.epoch == epoch + 1
    assert not table.add("b", "127.0.0.1", 1002)  # endpoint refresh only
    assert table.get("b").port == 1002
    table.remove("b")
    assert table.get("b") is None


def test_suspect_then_confirm_alive_round_trips():
    table = table_of("a", "b")
    assert table.suspect("b", now_ms=100.0)
    assert table.state_of("b") == SUSPECT
    assert not table.suspect("b", now_ms=101.0)  # already suspect
    assert table.confirm_alive("b")
    assert table.state_of("b") == ALIVE
    assert table.get("b").suspected_at is None


def test_expired_suspects_age_on_the_local_clock():
    table = table_of("a", "b", "c")
    table.suspect("b", now_ms=100.0)
    table.suspect("c", now_ms=900.0)
    assert table.expired_suspects(now_ms=1200.0, timeout_ms=1000.0) == ["b"]


def test_confirm_dead_tombstones_and_excludes_from_endpoints():
    table = table_of("a", "b")
    assert table.confirm_dead("b")
    assert table.state_of("b") == DEAD
    assert "b" not in table.endpoints()
    assert "b" in table.members  # the tombstone is kept
    assert not table.confirm_dead("b")  # idempotent
    assert not table.confirm_dead("a")  # never self


def test_rejoin_after_death_bumps_incarnation():
    table = table_of("a", "b")
    table.confirm_dead("b")
    dead_incarnation = table.get("b").incarnation
    assert table.add("b", "127.0.0.1", 2001)
    assert table.state_of("b") == ALIVE
    assert table.get("b").incarnation == dead_incarnation + 1


def test_merge_adopts_unknown_members():
    table = table_of("a")
    outcome = table.merge(
        {"epoch": 5, "members": {"b": ["127.0.0.1", 1001, ALIVE, 0]}},
        now_ms=0.0,
    )
    assert outcome.changed and outcome.joined == ["b"]
    assert table.state_of("b") == ALIVE
    assert table.epoch >= 5


def test_merge_equal_incarnation_precedence_dead_beats_suspect_beats_alive():
    table = table_of("a", "b")
    # alive(0) -> suspect(0): accepted (higher rank at equal incarnation).
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, SUSPECT, 0]}},
        now_ms=50.0,
    )
    assert out.changed and table.state_of("b") == SUSPECT
    assert table.get("b").suspected_at == 50.0  # aged on our clock
    # suspect(0) -> alive(0): stale, refused.
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, ALIVE, 0]}},
        now_ms=60.0,
    )
    assert not out.changed and table.state_of("b") == SUSPECT
    # suspect(0) -> dead(0): accepted, reported as an eviction.
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, DEAD, 0]}},
        now_ms=70.0,
    )
    assert out.evicted == ["b"] and table.state_of("b") == DEAD


def test_merge_higher_incarnation_beats_any_state():
    table = table_of("a", "b")
    table.confirm_dead("b")
    # dead(0) -> alive(1): the member refuted; that is a resurrection.
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, ALIVE, 1]}},
        now_ms=0.0,
    )
    assert out.joined == ["b"]
    assert table.state_of("b") == ALIVE
    # alive(1) -> dead(0): stale gossip cannot resurrect the tombstone.
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, DEAD, 0]}},
        now_ms=0.0,
    )
    assert not out.changed and table.state_of("b") == ALIVE


def test_merge_self_accusation_triggers_refutation():
    table = table_of("a", "b")
    out = table.merge(
        {"epoch": 0, "members": {"a": ["127.0.0.1", 1000, SUSPECT, 0]}},
        now_ms=0.0,
    )
    assert out.refuted
    assert table.state_of("a") == ALIVE
    assert table.incarnation == 1  # bumped past the accusation
    # A stale accusation below our incarnation is ignored.
    out = table.merge(
        {"epoch": 0, "members": {"a": ["127.0.0.1", 1000, DEAD, 0]}},
        now_ms=0.0,
    )
    assert not out.refuted and table.incarnation == 1


def test_refute_reannounces_alive_at_higher_incarnation():
    table = table_of("a")
    assert table.refute() == 1
    assert table.refute() == 2
    assert table.state_of("a") == ALIVE


def test_depart_declares_self_dead():
    table = table_of("a", "b")
    table.depart()
    assert table.state_of("a") == DEAD
    assert "a" not in table.endpoints()
    # The departure gossips as an ordinary death record.
    payload = table.payload()
    other = MembershipTable("b", "127.0.0.1", 1001)
    other.add("a", "127.0.0.1", 1000)
    outcome = other.merge(payload, now_ms=0.0)
    assert "a" in outcome.evicted
    assert other.state_of("a") == DEAD


def test_payload_adopt_round_trip():
    table = table_of("a", "b", "c")
    table.suspect("b", now_ms=10.0)
    mirror = MembershipTable("c", "127.0.0.1", 9999)
    mirror.adopt(table.payload(), now_ms=50.0)
    assert set(mirror.members) == {"a", "b", "c"}
    assert mirror.state_of("b") == SUSPECT
    # An adopted suspicion ages on the adopter's clock, like a merged one.
    assert mirror.expired_suspects(now_ms=150.0, timeout_ms=100.0) == ["b"]
    # The joiner keeps (or adopts) its own record.
    assert mirror.get("c") is not None


def test_adopt_never_forgets_a_member_or_downgrades_an_incarnation():
    joiner = MembershipTable("b", "127.0.0.1", 1001)
    # What a member-update told the joiner while its join reply was in
    # flight: a later joiner "c", and "a" refuting at incarnation 2.
    joiner.merge(
        {
            "epoch": 9,
            "members": {
                "a": ["127.0.0.1", 1000, ALIVE, 2],
                "c": ["127.0.0.1", 1002, ALIVE, 0],
            },
        },
        now_ms=0.0,
    )
    # The reply was built before either: no "c", "a" still at 0.
    joiner.adopt(
        {
            "epoch": 3,
            "members": {
                "a": ["127.0.0.1", 1000, ALIVE, 0],
                "b": ["127.0.0.1", 1001, ALIVE, 0],
                "d": ["127.0.0.1", 1003, DEAD, 1],
                "e": ["127.0.0.1", 1004, "zombie", 7],
            },
        },
        now_ms=0.0,
    )
    assert joiner.state_of("c") == ALIVE
    assert joiner.get("a").incarnation == 2
    assert joiner.state_of("d") == DEAD  # news is still taken
    assert joiner.get("e") is None  # a state from a future version is not
    assert joiner.epoch >= 9


def test_adopt_takes_a_tombstone_of_our_previous_life_for_reassert_to_beat():
    joiner = MembershipTable("b", "127.0.0.1", 1001)
    joiner.adopt(
        {"epoch": 4, "members": {"b": ["127.0.0.1", 1001, DEAD, 3]}},
        now_ms=0.0,
    )
    assert joiner.state_of("b") == DEAD
    assert joiner.reassert_self(0)
    assert joiner.state_of("b") == ALIVE and joiner.incarnation == 4


def test_merge_ignores_unknown_states_and_keeps_epoch_monotonic():
    table = table_of("a", "b")
    epoch = table.epoch
    out = table.merge(
        {"epoch": 0, "members": {"b": ["127.0.0.1", 1001, "zombie", 9]}},
        now_ms=0.0,
    )
    assert not out.changed
    assert table.epoch == epoch
    table.merge({"epoch": 99, "members": {}}, now_ms=0.0)
    assert table.epoch == 99


def test_peers_and_addresses_views():
    table = table_of("a", "b", "c")
    table.confirm_dead("c")
    assert sorted(table.addresses(ALIVE)) == ["a", "b"]
    assert table.peers(ALIVE) == ["b"]
    assert table.peers(DEAD) == ["c"]
    assert sorted(table.peers()) == ["b", "c"]
