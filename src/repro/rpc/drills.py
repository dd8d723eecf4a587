"""Live-cluster drills: observe a ring of real processes, break it, wait
for it to heal itself, measure what happened.

One copy of each mechanism, shared by ``repro cluster``, the live-churn
experiment, ``examples/live_cluster.py`` and the process tests, in three
layers: *observation primitives* over a ``LocalCluster`` (``cluster``)
and its ``ClusterClient`` (``client``); fault *waves* composed from them,
each returning a :class:`LiveChurnWave`; and *drills* that add pass/fail
gates and return a :class:`DrillResult`.

Nothing here parses flags or writes to a terminal: a drill reports
progress through the ``say(line)`` callable it is handed and everything
it measured through its result.  A gate the *ring* failed comes back as a
result with a ``reason``; a precondition the drill cannot work without
(no replica to kill, no survivor to check against) raises.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ReproError
from repro.obs.distributed import cluster_histogram, counter_total
from repro.ranges.interval import IntRange
from repro.rpc.chaos import ChaosRunner, ChaosSchedule
from repro.rpc.client import ClusterScraper

__all__ = [
    "live_set", "member_view", "converged", "views_complete", "healed", "wait_for",
    "replica_victim", "mean_recall", "peer_snapshots", "counter_sum",
    "histogram_summary", "LiveChurnWave", "kill_wave", "pause_wave",
    "partition_wave", "DrillResult", "smoke_drill", "chaos_drill",
    "restart_drill", "cold_restart_drill", "capture_observability",
]

#: Seconds between two looks at a condition in :func:`wait_for`.
POLL_S = 0.1

Queries = Sequence[IntRange]
#: Where a drill sends its progress lines (``print``, a logger, a list's
#: ``append``); it is the drill's only output besides its result.
Say = Callable[[str], None]


# -- observation primitives ----------------------------------------------


def live_set(cluster) -> set[str]:
    """Peers that can answer: process running and not SIGSTOPped."""
    return {
        address
        for address in cluster.endpoints
        if cluster.alive(address) and address not in cluster.paused
    }


def member_view(cluster, address: str) -> set[str]:
    """The member map ``address`` serves right now (no dead members)."""
    return set(cluster.call(address, "hello", timeout_ms=2_000.0)["members"])


def _every_view(
    cluster, peers: Iterable[str], holds: Callable[[set[str]], bool]
) -> bool:
    """``holds`` of the member view of every one of ``peers``; a view
    that cannot be fetched holds nothing."""
    try:
        return all(holds(member_view(cluster, a)) for a in sorted(peers))
    except ReproError:
        return False


def converged(cluster) -> bool:
    """Every live peer's member view equals the live set."""
    live = live_set(cluster)
    return _every_view(cluster, live, lambda view: view == live)


def views_complete(cluster) -> bool:
    """Every live peer's member view lists every live peer: the barrier
    ``LocalCluster.launch`` returns behind.  :func:`converged` but for
    the dead — a view may still list a killed peer nobody has evicted
    (yet, or ever: SWIM may be off), and a peer brought (back) up next to
    it is no less up for that."""
    live = live_set(cluster)
    return _every_view(cluster, live, lambda view: view >= live)


def healed(cluster, client) -> bool:
    """Converged, and a clean :meth:`ClusterClient.audit`: every stored
    key on its replica set, one primary at its owner, no copy missing
    (the client re-mirrors first, so evicted peers are not asked)."""
    if not converged(cluster):
        return False
    client.refresh()
    return client.audit().ok


def wait_for(predicate: Callable[[], bool], what: str, timeout_s: float) -> float:
    """Poll ``predicate`` until it holds; returns the elapsed milliseconds.

    A :class:`ReproError` out of the predicate means a peer is
    mid-transition and reads as "not yet"; anything else is a bug and
    propagates.  Raises a :class:`ReproError` naming ``what`` on timeout.
    """
    started = time.monotonic()
    while time.monotonic() < started + timeout_s:
        try:
            if predicate():
                return (time.monotonic() - started) * 1000.0
        except ReproError:
            pass
        time.sleep(POLL_S)
    raise ReproError(f"timed out after {timeout_s:g}s waiting for {what}")


def replica_victim(client, query: IntRange) -> str:
    """A peer that replicates — but does not own — one of ``query``'s
    identifiers: killing it must be absorbed by replica-chain failover.
    Never the client's bootstrap peer, which it needs for ``refresh()``."""
    system = client.system
    for identifier in system.identifiers_for(query):
        for replica in system.replica_owners(identifier)[1:]:
            if system.endpoints[replica] != client.bootstrap:
                return system.router.ring.node(replica).address
    raise ReproError("no non-owner replica available to kill")


def mean_recall(client, queries: Queries) -> float:
    """Mean recall of one pass over ``queries`` (0.0 for no queries)."""
    recalls = [client.query(query).recall for query in queries]
    return sum(recalls) / max(1, len(recalls))


def peer_snapshots(cluster) -> dict[str, dict]:
    """Every live peer's metrics-registry snapshot, by address."""
    return {a: cluster.call(a, "metrics") for a in sorted(live_set(cluster))}


def counter_sum(cluster, name: str) -> float:
    """One counter summed over every live peer's registry."""
    return sum(counter_total(s, name) for s in peer_snapshots(cluster).values())


def histogram_summary(cluster, name: str) -> dict:
    """One histogram merged bucket-wise over every live peer's registry:
    count, mean, max and p50/p95/p99."""
    return cluster_histogram(peer_snapshots(cluster).values(), name)


# -- waves -----------------------------------------------------------------


@dataclass(frozen=True)
class LiveChurnWave:
    """Measured outcome of one fault wave against the live cluster."""

    wave: str
    recall: float
    detect_ms: float | None
    repair_ms: float | None
    #: Growth of the peers' own ``swim.suspected`` / ``swim.dead`` /
    #: ``repair.push.copies`` counters over the wave.
    suspected: int
    evicted: int
    repair_copies: int
    members: int


def _growth(before: dict[str, dict], now: dict[str, dict], name: str) -> int:
    """How much counter ``name`` grew between two :func:`peer_snapshots`,
    peer by peer over the peers in ``now`` — a killed peer takes its
    tallies with it, so cluster-wide sums around a kill do not subtract."""
    return int(
        sum(
            counter_total(snapshot, name) - counter_total(before.get(a, {}), name)
            for a, snapshot in now.items()
        )
    )


def _settle(
    wave: str, cluster, client, queries: Queries, before: dict[str, dict],
    detect_ms: float, repair_ms: float | None,
) -> LiveChurnWave:
    """The tail every wave shares: re-mirror, re-query, read the tallies."""
    client.refresh()
    now = peer_snapshots(cluster)
    return LiveChurnWave(
        wave, mean_recall(client, queries), detect_ms, repair_ms,
        suspected=_growth(before, now, "swim.suspected"),
        evicted=_growth(before, now, "swim.dead"),
        repair_copies=_growth(before, now, "repair.push.copies"),
        members=len(client.members),
    )


def kill_wave(
    cluster, client, queries: Queries, victim: str, timeout_s: float
) -> LiveChurnWave:
    """SIGKILL ``victim`` and let the ring deal with it, the client idle.

    ``detect_ms`` is kill → evicted from every live mirror, ``repair_ms``
    kill → :func:`healed` (a clean placement audit); the client sends nothing
    but monitoring reads until both hold, so the recall measured
    afterwards is the ring's own doing.
    """
    before = peer_snapshots(cluster)
    cluster.kill(victim)
    detect_ms = wait_for(
        lambda: converged(cluster), f"every mirror to evict {victim}", timeout_s
    )
    repair_ms = detect_ms + wait_for(
        lambda: healed(cluster, client),
        f"re-replication of what {victim} held",
        timeout_s,
    )
    return _settle("kill", cluster, client, queries, before, detect_ms, repair_ms)


def pause_wave(
    cluster, client, queries: Queries, target: str, timeout_s: float
) -> LiveChurnWave:
    """SIGSTOP ``target`` until some peer suspects it, then SIGCONT.

    Held exactly as long as it takes to be *suspected*, so the thawed
    peer has the whole suspicion timeout to refute.  ``detect_ms`` is
    SIGCONT → back in every mirror; raises if the peer came back with
    fewer entries than it went under with.
    """
    held = {entry[0] for entry in client.entries_of(target)}
    before = peer_snapshots(cluster)
    cluster.pause(target)
    wait_for(
        lambda: _growth(before, peer_snapshots(cluster), "swim.suspected") > 0,
        f"some peer to suspect the paused {target}",
        timeout_s,
    )
    cluster.resume(target)
    detect_ms = wait_for(
        lambda: converged(cluster),
        f"{target} to refute and rejoin every mirror",
        timeout_s,
    )
    lost = held - {entry[0] for entry in client.entries_of(target)}
    if lost:
        raise ReproError(
            f"{target} lost {len(lost)} of {len(held)} entries over the pause"
        )
    return _settle("pause", cluster, client, queries, before, detect_ms, None)


def partition_wave(
    cluster, client, queries: Queries, size: int, hold_s: float, timeout_s: float
) -> LiveChurnWave:
    """Split ``size`` peers off (two-sided) for ``hold_s``, then heal.

    The minority never includes the client's bootstrap peer.
    ``detect_ms`` is split → every majority mirror has evicted the
    minority, ``repair_ms`` heal → :func:`healed` again.
    """
    live = sorted(live_set(cluster))
    minority = [
        a for a in live if cluster.endpoints[a] != client.bootstrap
    ][:size]
    majority = [a for a in live if a not in minority]
    before = peer_snapshots(cluster)
    cluster.partition(minority, majority)
    detect_ms = wait_for(
        lambda: _every_view(cluster, majority, lambda view: view == set(majority)),
        "the majority side to evict the minority",
        timeout_s,
    )
    time.sleep(max(0.0, hold_s - detect_ms / 1000.0))
    cluster.heal()
    repair_ms = wait_for(
        lambda: healed(cluster, client), "post-heal reconvergence", timeout_s
    )
    return _settle(
        "partition", cluster, client, queries, before, detect_ms, repair_ms
    )


# -- drills ----------------------------------------------------------------


@dataclass(frozen=True)
class DrillResult:
    """What one drill measured, and why its gate failed if it did."""

    drill: str
    #: Why the gate failed; empty when the drill passed.
    reason: str = ""
    recall_before: float | None = None
    recall_after: float | None = None
    failovers: int = 0
    failed_lookups: int = 0
    #: Last fault (or restart) → ring reconverged; for the smoke and
    #: chaos drills, also a clean placement audit (:func:`healed`).
    heal_ms: float | None = None
    #: ``restore.entries`` summed over the restarted peers.
    restored: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.reason


def _lost_recall(before: float, after: float) -> bool:
    return after < before - 1e-9


def _reconverged(cluster, timeout_s: float) -> float | None:
    """Milliseconds until membership reconverged; ``None`` if it did not."""
    try:
        return wait_for(
            lambda: converged(cluster), "membership to reconverge", timeout_s
        )
    except ReproError:
        return None


def smoke_drill(
    cluster, client, queries: Queries, warm_recall: float, timeout_s: float,
    say: Say,
) -> DrillResult:
    """SIGKILL a non-owner replica mid-workload.

    Unlike :func:`kill_wave` the client keeps querying *between* the kill
    and the eviction: recall must hold by replica-chain failover alone
    (and at least one lookup must have failed over, or the kill missed).
    Then the ring has ``timeout_s`` to heal itself to a clean placement
    audit: r copies of every key, one primary at its owner.
    """
    replicas = client.system.config.replicas
    victim = replica_victim(client, queries[0])
    cluster.kill(victim)
    say(f"smoke: killed {victim} (SIGKILL)")
    recall = mean_recall(client, queries)
    failovers = int(client.system.counters.failovers)
    failed = int(client.system.counters.failed_lookups)
    say(
        f"after: {len(queries)} queries, mean recall {recall:.2f}, "
        f"{failovers} failovers, {failed} failed lookups"
    )
    reason, heal_ms = "", None
    if _lost_recall(warm_recall, recall):
        reason = f"recall dropped after the kill ({warm_recall:.3f} -> {recall:.3f})"
    elif failovers == 0:
        reason = "the killed replica was never failed over (did the kill land?)"
    else:
        say("smoke: recall survived the kill")
        try:
            heal_ms = wait_for(
                lambda: healed(cluster, client), "the ring to heal", timeout_s
            )
        except ReproError:
            reason = (
                f"the ring did not heal to {replicas} copies of every key, "
                f"one primary each, within {timeout_s:g}s"
            )
        else:
            say(
                f"smoke: ring healed to {replicas} copies of every key in "
                f"{heal_ms / 1000.0:.1f}s, no client involved"
            )
    return DrillResult(
        "smoke", reason, warm_recall, recall, failovers, failed, heal_ms
    )


def chaos_drill(
    cluster, client, queries: Queries, warm_recall: float,
    counts: dict[str, int], seed: int, timeout_s: float, say: Say,
) -> DrillResult:
    """Play a seeded chaos schedule (``counts`` from
    :meth:`ChaosSchedule.parse_spec`), then gate on self-healing:
    membership must reconverge, the placement audit come back clean and
    recall return to ``warm_recall``."""
    schedule = ChaosSchedule.generate(
        seed, list(cluster.endpoints), counts,
        protect=(next(iter(cluster.endpoints)),),
    )
    say(f"chaos: schedule [{schedule.describe()}]")
    runner = ChaosRunner(cluster, schedule)
    runner.run()
    # The schedule is over: lift residual delay/drop faults (partitions
    # heal via their own scheduled event) and let the ring converge.
    cluster.heal()
    try:
        heal_ms = wait_for(lambda: healed(cluster, client), "the ring to heal", timeout_s)
    except ReproError:
        reason = (
            f"the ring did not reconverge to a clean placement audit within "
            f"{timeout_s:g}s (live={sorted(live_set(cluster))}, "
            f"mirrored={sorted(client.members)})"
        )
        return DrillResult("chaos", reason, warm_recall)
    recall = mean_recall(client, queries)
    say(
        f"healed: {len(queries)} queries, mean recall {recall:.2f} "
        f"(warm was {warm_recall:.2f}), {len(runner.applied)} faults applied"
    )
    reason = ""
    if _lost_recall(warm_recall, recall):
        reason = f"recall did not recover after chaos ({warm_recall:.3f} -> {recall:.3f})"
    else:
        say("chaos: ring self-healed, recall recovered")
    return DrillResult("chaos", reason, warm_recall, recall, heal_ms=heal_ms)


def restart_drill(
    cluster, queries: Queries, warm_recall: float, timeout_s: float, say: Say
) -> DrillResult:
    """Kill *all* replica holders of a probed entry, restart from disk.

    The drill proves durability end to end: after the kills no live peer
    holds the probed identifier (verified by scanning every survivor),
    so when recall returns after the restarts the data can only have
    come from the restarted peers' WAL/snapshot state — which their
    ``restore.entries`` counters confirm.  Peers come back on fresh
    ports, so the drill builds its own clients.
    """
    with cluster.client() as client:
        system = client.system
        identifier = system.identifiers_for(queries[0])[0]
        holders = [
            system.router.ring.node(node_id).address
            for node_id in system.replica_owners(identifier)
        ]
    survivors = sorted(live_set(cluster) - set(holders))
    if not survivors:
        raise ReproError(
            "restart drill: every live peer is a replica holder of the "
            "probed identifier; it needs more peers than replicas"
        )
    for address in holders:
        if cluster.alive(address):
            cluster.kill(address)
    say(
        f"restart drill: killed all {len(holders)} replica holder(s) of "
        f"identifier {identifier}: {', '.join(holders)}"
    )
    with cluster.client() as client:
        for address in survivors:
            if any(int(e[0]) == identifier for e in client.entries_of(address)):
                reason = (
                    f"survivor {address} still holds the probed identifier "
                    "— the kill set missed a copy"
                )
                return DrillResult("restart", reason, warm_recall)
        say("restart drill: zero surviving in-memory copies of the probed identifier")
        cluster.restart_all(holders)
        heal_ms = _reconverged(cluster, timeout_s)
        if heal_ms is None:
            reason = f"membership never reconverged within {timeout_s:g}s of the restarts"
            return DrillResult("restart", reason, warm_recall)
        snapshots = peer_snapshots(cluster)
        restored = 0.0
        for address in holders:
            entries = counter_total(snapshots[address], "restore.entries")
            wal = counter_total(snapshots[address], "restore.wal_records")
            say(
                f"restart drill: {address} restored {entries:g} entrie(s) "
                f"({wal:g} WAL record(s)) from disk"
            )
            if entries <= 0:
                reason = f"restarted peer {address} restored nothing from disk"
                return DrillResult("restart", reason, warm_recall)
            restored += entries
        client.refresh()
        recall = mean_recall(client, queries)
    say(f"restart drill: recall {recall:.2f} after restart (warm was {warm_recall:.2f})")
    reason = ""
    if _lost_recall(warm_recall, recall):
        reason = (
            f"recall did not return after the restarts ({warm_recall:.3f} -> {recall:.3f})"
        )
    else:
        say("restart drill: recovery came from disk, recall restored")
    return DrillResult(
        "restart", reason, warm_recall, recall, heal_ms=heal_ms, restored=restored
    )


def cold_restart_drill(
    cluster, queries: Queries, warm_recall: float, timeout_s: float, say: Say
) -> DrillResult:
    """SIGKILL every peer, restart the whole cluster from disk; recall
    must be preserved exactly."""
    addresses = list(cluster.endpoints)
    for address in addresses:
        if cluster.alive(address):
            cluster.kill(address)
    say(f"cold restart: killed all {len(addresses)} peer(s)")
    # The first peer back finds no live bootstrap and seeds a fresh ring
    # from its disk state; the rest join through it, all at once.
    cluster.restart_all(addresses)
    heal_ms = _reconverged(cluster, timeout_s)
    if heal_ms is None:
        reason = f"membership never reconverged within {timeout_s:g}s of the cold restart"
        return DrillResult("cold-restart", reason, warm_recall)
    restored = counter_sum(cluster, "restore.entries")
    with cluster.client() as client:
        recall = mean_recall(client, queries)
    say(
        f"cold restart: {restored:g} entrie(s) restored across the "
        f"ring, recall {recall:.2f} (warm was {warm_recall:.2f})"
    )
    reason = ""
    if restored <= 0:
        reason = "the cold restart restored nothing from disk"
    elif _lost_recall(warm_recall, recall):
        reason = f"the cold restart lost recall ({warm_recall:.3f} -> {recall:.3f})"
    else:
        say("cold restart: recall preserved from disk")
    return DrillResult(
        "cold-restart", reason, warm_recall, recall, heal_ms=heal_ms, restored=restored
    )


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, default=str)


def capture_observability(
    client, queries: Queries, trace_path: str | None,
    telemetry_path: str | None, say: Say,
) -> DrillResult:
    """Write the stitched trace of ``queries[0]`` and/or the merged
    telemetry view of the ring.

    Run it after the workload (and after any other drill) and what it
    captures shows the *recovered* ring: the trace proves cross-process
    span stitching works end to end, the telemetry scrape proves every
    surviving member answers with a parseable, versioned snapshot.
    """
    client.refresh()
    if trace_path:
        result, trace, report = client.query_traced(queries[0])
        say(
            f"trace: stitched {report.attached} server span(s) from "
            f"{len(report.nodes)} peer(s) "
            f"({', '.join(sorted(report.nodes)) or 'none'}), "
            f"{report.orphans} orphan(s), recall {result.recall:.2f}"
        )
        _write_json(
            trace_path, {"trace": trace.to_dict(), "stitch": report.to_dict()}
        )
        say(f"trace: wrote stitched trace to {trace_path}")
        if report.attached == 0:
            return DrillResult(
                "observability",
                "no server-side span was stitched into the trace "
                "(telemetry RPC broken, or no peer sampled the query)",
            )
    if telemetry_path:
        view = ClusterScraper(client).scrape()
        service = view["service_ms"]
        down = view.get("down")
        say(
            f"telemetry: scraped {view['scraped']}/{view['members']} "
            f"members, service p50/p95/p99 "
            f"{service['p50']:g}/{service['p95']:g}/{service['p99']:g} ms, "
            f"load skew {view['load_skew']:.3f}"
            + (f", down: {', '.join(sorted(down))}" if down else "")
        )
        _write_json(telemetry_path, view)
        say(f"telemetry: wrote cluster view to {telemetry_path}")
        if view["errors"]:
            return DrillResult(
                "observability",
                f"telemetry scrape failed for "
                f"{sorted(view['errors'])}: {view['errors']}",
            )
    return DrillResult("observability")
