"""The drill library against scripted stand-ins: no processes, no sockets.

``ScriptedCluster`` duck-types what the observation primitives read of a
``LocalCluster`` (``endpoints`` / ``alive`` / ``paused`` / ``call``) and
answers ``hello`` and ``metrics`` from canned tables.  The real-process
run of the same code is the ``healing`` fixture of ``test_rpc_cluster``.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import pytest

from repro.core.config import SystemConfig
from repro.errors import PeerUnavailableError, ReproError
from repro.obs.distributed import counter_total, merge_histogram_series
from repro.obs.registry import MetricsRegistry
from repro.ranges.interval import IntRange
from repro.rpc import drills
from repro.rpc.client import ClientSystem

DOWN = PeerUnavailableError(0)


class ScriptedCluster:
    """``views``: address -> the member set its ``hello`` serves, or an
    exception to raise; ``snapshots``: address -> its ``metrics`` reply."""

    def __init__(self, views, snapshots=None, exited=(), paused=()):
        self.endpoints = {address: ("127.0.0.1", 9000) for address in views}
        self.replies = {"hello": dict(views), "metrics": dict(snapshots or {})}
        self.exited = set(exited)
        self.paused = set(paused)
        self.asked: set[str] = set()

    def alive(self, address):
        return address not in self.exited

    def call(self, address, kind, payload=None, *, timeout_ms=0.0):
        self.asked.add(address)
        reply = self.replies[kind][address]
        if isinstance(reply, Exception):
            raise reply
        return {"members": dict.fromkeys(reply)} if kind == "hello" else reply

    def kill(self, address):
        """The scripted ring notices at once: every view drops the victim."""
        self.exited.add(address)
        for view in self.replies["hello"].values():
            view.discard(address)


@pytest.fixture(autouse=True)
def fast_poll(monkeypatch):
    monkeypatch.setattr(drills, "POLL_S", 0.01)


def test_wait_for_returns_the_elapsed_milliseconds():
    looks = iter([False, False, True])
    elapsed = drills.wait_for(lambda: next(looks), "the third look", 5.0)
    # Two polls of 10 ms were slept through; nowhere near the 5 s budget.
    assert 20.0 <= elapsed < 5_000.0


def test_wait_for_reads_a_repro_error_as_not_yet_and_nothing_else():
    outcomes = iter([DOWN, True, ValueError("a bug, not a transition")])

    def predicate():
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    assert drills.wait_for(predicate, "a peer in transition", 5.0) >= 0.0
    with pytest.raises(ValueError):
        drills.wait_for(predicate, "nothing", 5.0)


def test_wait_for_times_out_naming_what_it_waited_for():
    with pytest.raises(ReproError, match="0.05s waiting for pigs to fly"):
        drills.wait_for(lambda: False, "pigs to fly", 0.05)


AB, ABC = {"a", "b"}, {"a", "b", "c"}


@pytest.mark.parametrize(
    "views, exited, paused, expected",
    [
        ({"a": ABC, "b": ABC, "c": ABC}, (), (), True),
        # a view still lists the dead "c" / lists fewer than the live set
        # / cannot be fetched
        ({"a": AB, "b": ABC, "c": ABC}, "c", (), False),
        ({"a": ABC, "b": AB, "c": ABC}, (), (), False),
        ({"a": ABC, "b": DOWN, "c": ABC}, (), (), False),
        # the SIGSTOPped "c" and the exited "d" are neither asked (both
        # would raise) nor expected in anybody's view
        ({"a": AB, "b": AB, "c": DOWN, "d": DOWN}, "d", "c", True),
    ],
)
def test_converged_means_every_live_view_is_the_live_set(
    views, exited, paused, expected
):
    cluster = ScriptedCluster(views, exited=exited, paused=paused)
    live = set(views) - set(exited) - set(paused)
    assert drills.live_set(cluster) == live
    assert drills.converged(cluster) is expected
    assert cluster.asked <= live


MEMBERS = {f"peer-{i}": ("127.0.0.1", 7000 + i) for i in range(6)}
QUERIES = [IntRange(100, 200), IntRange(250, 420), IntRange(700, 910)]


@functools.lru_cache(maxsize=None)
def mirrored_system(replicas: int) -> ClientSystem:
    config = SystemConfig(n_peers=len(MEMBERS), replicas=replicas, seed=7)
    return ClientSystem(config, MEMBERS)


def mirrored_client(replicas: int, bootstrap: str) -> SimpleNamespace:
    return SimpleNamespace(
        system=mirrored_system(replicas), bootstrap=MEMBERS[bootstrap]
    )


@pytest.mark.parametrize("bootstrap", ["peer-0", "peer-3", "peer-5"])
@pytest.mark.parametrize("query", QUERIES)
def test_victim_is_a_non_owner_replica_and_never_the_bootstrap(bootstrap, query):
    client = mirrored_client(3, bootstrap)
    victim = drills.replica_victim(client, query)
    assert victim != bootstrap
    system = client.system
    replica_sets = [
        [system.router.ring.node(n).address for n in system.replica_owners(i)]
        for i in system.identifiers_for(query)
    ]
    # Picked for an identifier it replicates without owning.
    assert any(victim in owners[1:] for owners in replica_sets)


def test_no_victim_without_replication():
    with pytest.raises(ReproError, match="no non-owner replica"):
        drills.replica_victim(mirrored_client(1, "peer-0"), QUERIES[0])


def peer_registry(dead: int, detect_ms: tuple[float, ...] = ()) -> dict:
    registry = MetricsRegistry()
    registry.counter("swim.dead").inc(dead)
    for value in detect_ms:
        registry.histogram("swim.detect_ms").observe(value)
    return registry.snapshot()


def test_totals_equal_the_obs_readers_over_the_live_snapshots():
    snapshots = {
        "a": peer_registry(2, (120.0, 2400.0)),
        "b": peer_registry(1, (900.0,)),
        "c": peer_registry(40, (9_999.0,)),  # exited: must not be counted
    }
    cluster = ScriptedCluster(dict.fromkeys(snapshots), snapshots, exited="c")
    live = [snapshots["a"], snapshots["b"]]
    assert drills.counter_sum(cluster, "swim.dead") == 3.0 == sum(
        counter_total(snapshot, "swim.dead") for snapshot in live
    )
    merged = merge_histogram_series(live, "swim.detect_ms")
    summary = drills.histogram_summary(cluster, "swim.detect_ms")
    assert summary["count"] == merged["count"] == 3
    assert summary["max"] == merged["max"] == 2400.0
    assert summary["mean"] == pytest.approx(merged["sum"] / merged["count"])
    assert drills.histogram_summary(cluster, "no.such")["count"] == 0


def test_kill_wave_counts_only_what_the_survivors_added():
    # The victim goes under holding tallies of its own; cluster-wide sums
    # before and after would subtract them and under-report the wave.
    snapshots = {"a": peer_registry(0), "b": peer_registry(0), "c": peer_registry(5)}
    cluster = ScriptedCluster({a: set(ABC) for a in ABC}, snapshots)
    kill = cluster.kill

    def kill_and_let_a_survivor_confirm(address):
        kill(address)
        cluster.replies["metrics"]["a"] = peer_registry(1)

    cluster.kill = kill_and_let_a_survivor_confirm
    refreshes: list[int] = []
    client = SimpleNamespace(
        members=dict.fromkeys(AB),
        refresh=lambda: refreshes.append(1),
        audit=lambda: SimpleNamespace(ok=True),
        query=lambda query: SimpleNamespace(recall=1.0),
    )
    wave = drills.kill_wave(cluster, client, QUERIES, "c", 5.0)
    assert (wave.wave, wave.recall, wave.members) == ("kill", 1.0, 2)
    assert (wave.suspected, wave.evicted, wave.repair_copies) == (0, 1, 0)
    assert 0.0 <= wave.detect_ms <= wave.repair_ms
    assert refreshes, "the wave never re-mirrored the client"
