"""Live-cluster drills: real processes, real sockets, real SIGKILL.

Two module-scoped clusters:

- the **static-membership drill** (five peers, SWIM and server repair
  off) checks what holds without the immune system — failures are
  survived by lookup failover alone, and only a graceful leave changes
  the member map;
- the **self-healing drill** (eight peers, SWIM and server repair on)
  exercises the ring's own immune system: a SIGKILL'd replica holder is
  detected, evicted from every member map, and re-replicated with the
  client idle; a SIGSTOP'd peer is suspected, refutes on SIGCONT, and
  rejoins without losing a single entry.
"""

from __future__ import annotations

import pytest

from repro.chord.hashing import node_id_for_address
from repro.core.config import SystemConfig
from repro.obs.distributed import counter_series, counter_total
from repro.ranges.interval import IntRange
from repro.rpc import drills
from repro.rpc.cluster import LocalCluster

PEERS = 5
QUERIES = [
    IntRange(100, 200),
    IntRange(250, 420),
    IntRange(500, 640),
    IntRange(700, 910),
]


def make_config() -> SystemConfig:
    return SystemConfig(n_peers=PEERS, replicas=3, seed=7)


@pytest.fixture(scope="module")
def drill():
    """Run the whole lifecycle once; tests assert on the observations."""
    observed = {}
    # SWIM and server-side repair stay OFF here: this drill asserts the
    # static-membership behaviour (stale members survive a kill and
    # lookups route around them), which the self-healing loops would
    # otherwise race.
    with LocalCluster(
        PEERS, make_config(), swim_interval_ms=0.0, repair_interval_ms=0.0
    ) as cluster:
        with cluster.client() as client:
            # Warm: first pass stores (cold misses), second pass must hit.
            for query in QUERIES:
                client.query(query)
            observed["warm_recall"] = drills.mean_recall(client, QUERIES)
            # Connection reuse, read before anything dies: what the client
            # opened, and what each peer accepted against what it served.
            observed["warm_connects"] = client.metrics.counter(
                "wire.connects"
            ).total()
            observed["warm_served"] = {
                address: (
                    counter_total(snapshot, "wire.accepts"),
                    counter_total(snapshot, "server.requests"),
                )
                for address in client.members
                for snapshot in [client.telemetry_of(address)["metrics"]]
            }

            # Abrupt kill of a non-owner replica, mid-workload.
            victim = drills.replica_victim(client, QUERIES[0])
            cluster.kill(victim)
            observed["kill_victim"] = victim
            observed["kill_recall"] = drills.mean_recall(client, QUERIES)
            observed["failovers"] = client.system.counters.failovers
            observed["failed_lookups"] = client.system.counters.failed_lookups

            # Graceful leave of another peer: hand-off, then exit.
            leaver = next(
                address
                for address in cluster.endpoints
                if cluster.alive(address)
                and cluster.endpoints[address] != client.bootstrap
            )
            observed["leave_moved"] = client.leave(leaver)
            cluster.processes[leaver].wait(timeout=10)
            observed["leaver"] = leaver
            observed["leaver_alive"] = cluster.alive(leaver)
            observed["members_after_leave"] = len(client.members)
            observed["leave_recall"] = drills.mean_recall(client, QUERIES)
    return observed


def test_warm_queries_all_hit(drill):
    assert drill["warm_recall"] == pytest.approx(1.0)


def test_warm_queries_reuse_one_connection_per_peer(drill):
    # Two passes of four queries are 40 match and 60 store exchanges;
    # connect-per-request opened a socket for each.
    assert 0 < drill["warm_connects"] <= PEERS
    for address, (accepts, requests) in drill["warm_served"].items():
        # The client, the other peers, and the one-shot join/hello calls
        # of cluster start-up: a handful of sockets, whatever was served.
        assert 0 < accepts <= 2 * PEERS, (address, accepts)
        assert 3 * accepts <= requests, (address, accepts, requests)


def test_recall_survives_abrupt_kill(drill):
    assert drill["kill_recall"] >= drill["warm_recall"] - 1e-9
    assert drill["failovers"] > 0, "the kill was never failed over"
    assert drill["failed_lookups"] == 0


def test_graceful_leave_hands_off_and_exits(drill):
    assert drill["leave_moved"] > 0
    assert not drill["leaver_alive"]
    # Only a graceful leave removes itself from the member map; with SWIM
    # off the SIGKILLed peer stays as a stale entry that lookups route
    # around.
    assert drill["members_after_leave"] == PEERS - 1
    assert drill["leave_recall"] == pytest.approx(1.0)


# -- restart drill: the same address comes back on a new port ----------------


@pytest.fixture(scope="module")
def restarted():
    """Kill a peer while the client is idle, restart it, query again."""
    observed = {}
    with LocalCluster(
        3, SystemConfig(n_peers=3, replicas=2, seed=7),
        swim_interval_ms=0.0, repair_interval_ms=0.0,
    ) as cluster:
        with cluster.client() as client:
            for query in QUERIES:
                client.query(query)
            victim = next(
                address
                for address, endpoint in cluster.endpoints.items()
                if endpoint != client.bootstrap
            )
            old_endpoint = cluster.endpoints[victim]
            # The client holds an open connection to the victim now, and
            # learns nothing of the kill: it is not running its loop.
            cluster.kill(victim)
            observed["new_endpoint_differs"] = (
                cluster.restart(victim) != old_endpoint
            )
            client.refresh()
            observed["recall"] = drills.mean_recall(client, QUERIES)
            node_id = node_id_for_address(victim, client.system.config.id_bits)
            observed["marked_dead"] = node_id in client.transport.dead
            observed["timeouts"] = client.transport.stats.timeouts
            observed["served"] = counter_series(
                client.telemetry_of(victim)["metrics"], "server.requests"
            )
    return observed


def test_restarted_peer_is_reached_on_its_new_port_and_never_marked_dead(
    restarted,
):
    assert restarted["new_endpoint_differs"]
    # refresh() dropped the connection to the vacated endpoint, so no
    # query ran into it: the restarted peer (empty — this ring is not
    # durable — but alive) answered its share of the match requests.
    assert not restarted["marked_dead"]
    assert restarted["timeouts"] == 0
    assert restarted["served"].get("kind=match-request", 0) > 0
    assert restarted["recall"] == pytest.approx(1.0)


# -- distributed tracing drill: SIGKILL the owner mid-trace ------------------


def walk_span_docs(doc: dict):
    yield doc
    for child in doc.get("spans") or []:
        yield from walk_span_docs(child)


def event_names(span_doc: dict) -> set[str]:
    return {event.get("name") for event in span_doc.get("events") or []}


@pytest.fixture(scope="module")
def traced():
    """Distributed traces around an abrupt owner kill, client-driven.

    SWIM stays off so the membership mirror goes stale: the traced query
    after the kill *must* walk into the dead owner, eat the unreachable
    attempt, fail over down the successor list, and get its answer (and
    its server-side span) from a replica — all of which has to show up
    in one stitched tree.
    """
    observed = {}
    with LocalCluster(
        PEERS, make_config(), swim_interval_ms=0.0, repair_interval_ms=0.0
    ) as cluster:
        with cluster.client() as client:
            for query in QUERIES:
                client.query(query)

            # Healthy baseline: every server span stitches, no orphans.
            result, trace, report = client.query_traced(QUERIES[0])
            observed["healthy_recall"] = result.recall
            observed["healthy_doc"] = trace.to_dict()
            observed["healthy_attached"] = report.attached
            observed["healthy_nodes"] = set(report.nodes)
            observed["healthy_orphans"] = report.orphans

            # Kill the *owner* (rank 0) of one of the traced query's
            # identifiers — not the bootstrap, which the client needs.
            system = client.system
            ring = system.router.ring
            bootstrap_node = next(
                node_id
                for node_id in ring.node_ids
                if system.endpoints[node_id] == client.bootstrap
            )
            victim = next(
                ring.node(owner).address
                for identifier in system.identifiers_for(QUERIES[0])
                for owner in [system.replica_owners(identifier)[0]]
                if owner != bootstrap_node
            )
            cluster.kill(victim)
            observed["victim"] = victim

            result, trace, report = client.query_traced(QUERIES[0])
            observed["kill_recall"] = result.recall
            observed["kill_doc"] = trace.to_dict()
            observed["kill_attached"] = report.attached
            observed["kill_nodes"] = set(report.nodes)
    return observed


def test_healthy_traced_query_stitches_cleanly(traced):
    assert traced["healthy_recall"] == pytest.approx(1.0)
    assert traced["healthy_attached"] > 0
    assert traced["healthy_orphans"] == 0
    # A multi-process trace: client chain spans with remote children.
    chains = [
        span
        for span in walk_span_docs(traced["healthy_doc"])
        if span.get("name") == "chain"
    ]
    assert chains, "no client-side chain spans in the trace"
    remote_children = [
        child
        for chain in chains
        for child in chain.get("spans") or []
        if (child.get("attrs") or {}).get("remote")
    ]
    assert remote_children, "no server span stitched under a chain"


def test_traced_kill_shows_timeout_failover_and_replica_span(traced):
    # The answer still arrived (replica chain absorbed the kill)...
    assert traced["kill_recall"] >= traced["healthy_recall"] - 1e-9
    # ...and the stitched tree tells the whole story across processes:
    # server-side spans from at least two distinct surviving peers...
    assert traced["kill_attached"] > 0
    assert len(traced["kill_nodes"]) >= 2
    assert traced["victim"] not in traced["kill_nodes"]
    # ...including, on the chain that walked into the dead owner: the
    # unreachable attempt (the timeout), the failover edge, and the
    # replica's server-side span.
    failed_over = [
        span
        for span in walk_span_docs(traced["kill_doc"])
        if span.get("name") == "chain"
        and "failover" in event_names(span)
    ]
    assert failed_over, "no chain recorded a failover edge"
    assert any(
        "net-unreachable" in event_names(span) for span in failed_over
    ), "the dead owner's unreachable attempt never hit the trace"
    assert any(
        (child.get("attrs") or {}).get("remote")
        and (child.get("attrs") or {}).get("node") != traced["victim"]
        for span in failed_over
        for child in span.get("spans") or []
    ), "no replica server span stitched under the failed-over chain"


def test_dead_peer_contributes_no_fragments_only_its_absence(traced):
    # Fragment collection skipped the killed peer without erroring; its
    # absence from the node set *is* the observable.
    assert traced["victim"] not in traced["kill_nodes"]
    assert traced["kill_nodes"], "no surviving peer contributed fragments"


# -- self-healing drill: SWIM + server-driven repair -------------------------

HEAL_PEERS = 8
HEAL_REPLICAS = 3
#: Generous per-wave budget: detection needs ~1 failed probe round plus
#: the suspicion timeout (~4 s at the intervals below); CI runners jitter.
WAIT_S = 60.0


def entries_at(cluster, address) -> list:
    """One peer's stored entries over the raw ``entries`` RPC (first
    page; these drills store few) — no client machinery."""
    page = cluster.call(address, "entries")
    assert page["total"] == len(page["entries"])
    return page["entries"]


def replication_met(cluster, replicas: int) -> bool:
    """Every stored identifier has >= min(r, live) copies on live peers:
    a raw-RPC oracle, independent of the client, that the drills' heal
    (``ClusterClient.audit``) is held against."""
    live = drills.live_set(cluster)
    copies: dict[int, int] = {}
    for address in live:
        for entry in entries_at(cluster, address):
            identifier = entry[0]
            copies[identifier] = copies.get(identifier, 0) + 1
    if not copies:
        return False
    wanted = min(replicas, len(live))
    return all(count >= wanted for count in copies.values())


@pytest.fixture(scope="module")
def healing():
    """The library's kill + pause waves against a self-healing cluster —
    the waves ``repro cluster`` and the live-churn experiment run — with
    the raw-RPC oracles above held against what they report."""
    observed = {}
    config = SystemConfig(n_peers=HEAL_PEERS, replicas=HEAL_REPLICAS, seed=11)
    with LocalCluster(
        HEAL_PEERS,
        config,
        swim_interval_ms=250.0,
        suspect_timeout_ms=2500.0,
        repair_interval_ms=400.0,
    ) as cluster:
        with cluster.client() as client:
            # Warm the ring, then let replication settle.
            for query in QUERIES:
                client.query(query)
            observed["warm_recall"] = drills.mean_recall(client, QUERIES)
            drills.wait_for(
                lambda: replication_met(cluster, HEAL_REPLICAS),
                "warm replication",
                WAIT_S,
            )

            # --- kill wave: SIGKILL a replica-holding non-bootstrap peer.
            # The client stays idle inside the wave: no queries, no repair
            # of its own, only read-only monitoring (hello/entries/metrics).
            victim = drills.replica_victim(client, QUERIES[0])
            observed["victim_entries"] = len(entries_at(cluster, victim))
            observed["kill"] = drills.kill_wave(
                cluster, client, QUERIES, victim, WAIT_S
            )
            observed["healed_by_oracle"] = replication_met(
                cluster, HEAL_REPLICAS
            )
            observed["kill_audit"] = client.audit()
            observed["swim_evicted"] = drills.counter_sum(
                cluster, "swim.evicted"
            )
            observed["detect_hist"] = drills.histogram_summary(
                cluster, "swim.detect_ms"
            )

            # --- pause wave: SIGSTOP -> suspected -> SIGCONT -> refuted.
            target = drills.replica_victim(client, QUERIES[0])
            entries_before = sorted(e[0] for e in entries_at(cluster, target))
            observed["pause"] = drills.pause_wave(
                cluster, client, QUERIES, target, WAIT_S
            )
            entries_after = sorted(e[0] for e in entries_at(cluster, target))
            observed["pause_entries_kept"] = entries_after == entries_before
            observed["pause_audit"] = client.audit()
            observed["pause_entries_before"] = len(entries_before)
    return observed


def test_killed_peer_is_detected_and_evicted_by_the_ring(healing):
    # Detection happened on the server side, with the client idle.
    assert healing["kill"].evicted > 0, "no peer confirmed the death"
    assert healing["swim_evicted"] > 0, "no peer merged the eviction"
    assert healing["kill"].members == HEAL_PEERS - 1
    # Latency telemetry was recorded by the cluster's own histograms.
    assert healing["detect_hist"]["count"] >= 1
    assert healing["detect_hist"]["max"] > 0
    assert healing["kill"].detect_ms > 0


def test_lost_copies_are_re_replicated_without_a_client(healing):
    assert healing["victim_entries"] > 0, "victim held nothing to lose"
    assert healing["kill"].repair_copies > 0, "server repair pushed no copies"
    assert healing["kill"].repair_ms >= healing["kill"].detect_ms
    assert healing["healed_by_oracle"], (
        "audit() reported a heal the entries scan does not see"
    )
    assert healing["kill_audit"].ok, healing["kill_audit"].report()
    assert healing["kill"].recall >= healing["warm_recall"] - 1e-9


def test_paused_peer_is_suspected_then_rejoins_with_entries(healing):
    assert healing["pause"].suspected > 0, "SIGSTOP never raised suspicion"
    assert healing["pause"].evicted == 0, "a suspected peer was evicted"
    assert healing["pause_entries_before"] > 0
    assert healing["pause_entries_kept"], "entries lost across SIGSTOP"
    assert healing["pause_audit"].ok, healing["pause_audit"].report()
    assert healing["pause"].members == HEAL_PEERS - 1
    assert healing["pause"].recall >= healing["warm_recall"] - 1e-9


# -- concurrent bring-up: six real processes started at once -----------------


def test_a_ring_started_concurrently_is_converged_and_replicates():
    """No SWIM: membership is whatever the join path left behind."""
    config = SystemConfig(n_peers=6, replicas=HEAL_REPLICAS, seed=3)
    with LocalCluster(6, config, swim_interval_ms=0.0) as cluster:
        # start() returned behind its barrier: nothing left to wait for.
        assert drills.converged(cluster)
        with cluster.client() as client:
            assert len(client.members) == 6
            for start in range(0, 1000, 50):  # 20 disjoint ranges: 20 stores
                assert client.query(IntRange(start, start + 30)).stored
        drills.wait_for(
            lambda: replication_met(cluster, HEAL_REPLICAS),
            "every store at three copies",
            WAIT_S,
        )
        assert drills.converged(cluster)
