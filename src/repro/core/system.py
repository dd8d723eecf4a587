"""The range-selection P2P system (paper Section 4).

Query procedure, exactly as the paper's pseudocode sketches it:

1. hash the (possibly padded) selection range to ``l`` identifiers;
2. route each identifier through Chord to its owning peer, counting hops;
3. each owner searches the identifier's bucket for its best match and
   replies with the candidate descriptor and score;
4. the querying peer picks the overall best reply and, for the database
   front end, fetches the winning partition's tuples from that peer;
5. "if none of the match is exact, also store the computed partition at
   the peers holding the computed identifiers."
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import SystemConfig
from repro.core.matcher import Matcher, matcher_by_name
from repro.core.overlays import ChordRouter, build_overlay
from repro.core.placement import HashedPlacement, Key, plan_placement
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import ConfigError, PeerUnavailableError
from repro.net.transport import SimulatedNetwork
from repro.obs.log import get_logger
from repro.obs.registry import (
    MetricsRegistry,
    RegistryBackedCounters,
    registry_field,
)
from repro.obs.trace import NULL_TRACE, QueryTrace
from repro.ranges.interval import IntRange
from repro.rpc.engine import LocatePhase, MatchReply, QueryEngine, TimedQueryResult
from repro.rpc.peer import PeerLogic
from repro.storage.store import EvictionPolicy, LRUEviction, NoEviction, PeerStore
from repro.util.collector import gc_paused
from repro.util.rng import derive_rng

__all__ = ["RangeSelectionSystem", "MatchReply"]

logger = get_logger("core.system")

#: Default relation/attribute used by the pure-simulation experiments, which
#: hash bare integer ranges without a real schema behind them.
SIM_RELATION = "R"
SIM_ATTRIBUTE = "value"


class SystemCounters(RegistryBackedCounters):
    """Running totals the system maintains across queries.

    Served from a :class:`~repro.obs.MetricsRegistry` (counters named
    ``system.<field>``); the attribute API is unchanged from the old
    dataclass.  A standalone ``SystemCounters()`` binds a private
    registry; the system binds its unified one.
    """

    SCALAR_FIELDS = (
        "queries",
        "exact_hits",
        "misses",
        "stores",
        "placements",
        "overlay_hops",
        "failovers",
        "failed_lookups",
        "replica_placements",
        "store_failures",
        "repairs",
    )

    queries = registry_field("queries")
    exact_hits = registry_field("exact_hits")
    misses = registry_field("misses")
    stores = registry_field("stores")
    placements = registry_field("placements")
    overlay_hops = registry_field("overlay_hops")
    #: Lookups served by a successor replica after the owner was down.
    failovers = registry_field("failovers")
    #: Lookups for which every replica was unreachable.
    failed_lookups = registry_field("failed_lookups")
    #: Redundant (non-primary) placements made by the replication layer.
    replica_placements = registry_field("replica_placements")
    #: Store placements skipped because the target replica was unreachable.
    store_failures = registry_field("store_failures")
    #: Copies created by :meth:`RangeSelectionSystem.repair_replicas`.
    repairs = registry_field("repairs")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._bind(registry, "system")
        self.by_origin = self._labeled("queries_by_origin", "origin")


class RangeSelectionSystem(HashedPlacement):
    """All peers, the ring, the hash scheme, and the query procedure."""

    def __init__(self, config: SystemConfig) -> None:
        # Everything built here lives as long as the system does: nothing
        # for the cyclic collector to find, and at 10,000 peers its
        # re-scans cost as much as the build itself (DESIGN section 17).
        with gc_paused():
            super().__init__(config)
            self.matcher: Matcher = matcher_by_name(config.matcher)
            self.router = build_overlay(
                config.overlay,
                config.n_peers,
                id_bits=config.id_bits,
                dimensions=config.can_dimensions,
                seed=config.seed,
                successor_list_size=max(4, config.replicas),
            )
            #: The underlying Chord ring when the overlay is Chord (used by the
            #: churn helpers and Chord-specific tests); None under CAN.
            self.ring = (
                self.router.ring if isinstance(self.router, ChordRouter) else None
            )
            #: The unified metrics registry: the transport's TrafficStats, the
            #: SystemCounters, and any engine/collector bound to this system
            #: all publish here (one export surface; see :mod:`repro.obs`).
            self.metrics = MetricsRegistry()
            #: The synchronous network, which is also the shared query
            #: engine's transport: requests on it settle immediately, so the
            #: engine's futures are already resolved when :meth:`locate` /
            #: :meth:`query` / :meth:`store_partition` return.
            self.network = self.transport = SimulatedNetwork(registry=self.metrics)
            #: One policy object for every store: both policies keep their
            #: state on the store and its entries, none of their own.
            self._eviction: EvictionPolicy = (
                LRUEviction(config.max_partitions_per_peer)
                if config.max_partitions_per_peer
                else NoEviction()
            )
            self.stores: dict[int, PeerStore] = {}
            self._register_peers(self.router.node_ids)
            self._rng = derive_rng(config.seed, "system/origins")
            self.counters = SystemCounters(registry=self.metrics)
            self._engine = QueryEngine(self, self.network)

    # ------------------------------------------------------------------
    # Peer wiring
    # ------------------------------------------------------------------

    def _register_peers(self, node_ids: list[int]) -> None:
        """An empty store and a registered handler for each of ``node_ids``."""
        for node_id in node_ids:
            self.stores[node_id] = PeerStore(node_id, self._eviction)
            self.network.register(node_id, self._make_handler(node_id))

    def peer_handler(self, node_id: int):
        """The message handler of one peer, for wiring onto other
        transports (the event-driven engine registers these on its
        :class:`~repro.sim.network.AsyncNetwork`)."""
        return self._make_handler(node_id)

    def _make_handler(self, node_id: int):
        # One PeerLogic per peer: the same dispatch the socket server
        # runs, so the data plane cannot drift between transports.
        return PeerLogic(
            node_id,
            self.stores[node_id],
            self.matcher,
            local_index=self.config.local_index,
        ).deliver

    # ------------------------------------------------------------------
    # Faults (hashing and replica sets come from HashedPlacement)
    # ------------------------------------------------------------------

    def crash_peer(self, node_id: int) -> None:
        """Fail-stop a peer on the synchronous transport (its data stays
        in place but is unreachable until :meth:`recover_peer`)."""
        self.network.crash(node_id)

    def recover_peer(self, node_id: int) -> None:
        """Bring a synchronously-crashed peer back."""
        self.network.recover(node_id)

    # ------------------------------------------------------------------
    # Query procedure
    # ------------------------------------------------------------------

    def pick_origin(self) -> int:
        """A uniformly random querying peer."""
        router = self.router
        return router.node_at(int(self._rng.integers(len(router))))

    def start_trace(self, query: IntRange | None = None, **attrs) -> QueryTrace:
        """A :class:`~repro.obs.QueryTrace` for the synchronous path.

        The trace clock is the transport's cumulative simulated wire time
        (``network.now()``), so span durations measure the
        milliseconds of network traffic each step cost — the synchronous
        transport has no other notion of time.  Pass the trace to
        :meth:`query` / :meth:`locate` / :meth:`store_partition`.
        """
        if query is not None:
            attrs.setdefault("query", str(query))
        attrs.setdefault("path", "sync")
        return QueryTrace(clock=self.network.now, **attrs)

    def locate(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        trace: QueryTrace | None = None,
    ) -> LocatePhase:
        """Steps 1-4 of the query procedure (no storing).

        When the identifier's owner is unreachable the lookup fails over
        down the successor list and answers in degraded mode from whichever
        replica responds; each failover hop is charged one overlay edge
        (the successor pointer is already known, no re-routing needed).

        With a ``trace``, the lifecycle is recorded span by span: a
        ``hash`` span with one ``group`` event per identifier, then one
        ``chain`` span per identifier carrying its ``route-hop`` events
        (with the finger-table edge each hop followed), per-replica
        ``attempt`` events, ``failover`` steps and the ``match-reply``.
        """
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        # The sync transport settles every request before returning, so
        # the shared engine's future is already resolved here.
        return self._engine.locate(
            query, relation, attribute, origin, trace=trace
        ).result()

    def store_partition(
        self,
        r: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        partition: Partition | None = None,
        origin: int | None = None,
        identifiers: list[int] | None = None,
        trace: QueryTrace | None = None,
    ) -> int:
        """Step 5: store a partition at the ``l`` identifier owners.

        With ``replicas = r > 1`` each identifier's entry is additionally
        placed on the owner's ``r - 1`` ring successors, marked as
        replicas.  Unreachable targets are skipped (and counted) — the
        repair loop re-establishes the replication factor later.

        Returns the number of *new* primary placements.  ``identifiers``
        may be passed from a prior :meth:`locate` to avoid re-hashing;
        placement always targets their *current* replica sets.  A
        ``trace`` records the store fan-out as one ``placement`` event
        per (identifier, target) pair.
        """
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        outcome = self._engine.store(
            r, relation, attribute, origin,
            identifiers=identifiers, partition=partition, trace=trace,
        ).result()
        return outcome.new_placements

    def fetch_rows(
        self, reply: MatchReply, origin: int
    ) -> Partition | None:
        """Retrieve the winning partition's tuples from its holder."""
        return self.network.send(
            origin,
            reply.peer_id,
            "fetch-partition",
            payload=(reply.identifier, reply.descriptor),
        )

    def query(
        self,
        query: IntRange,
        relation: str = SIM_RELATION,
        attribute: str = SIM_ATTRIBUTE,
        origin: int | None = None,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> TimedQueryResult:
        """The full query procedure over a bare range (simulation mode).

        Padding (configured, or overridden per query — the adaptive
        controller uses the override) expands the range *before* hashing
        and storing, exactly as Section 5.2's padded-query experiment does;
        similarity and recall are always reported against the original
        query.

        Pass a trace from :meth:`start_trace` to capture the whole
        lifecycle; it is ended here with the outcome attributes.
        """
        trace = trace if trace is not None else NULL_TRACE
        if origin is None:
            origin = self.pick_origin()
        return self._engine.query(
            query, relation, attribute, origin, padding=padding, trace=trace
        ).result()

    # ------------------------------------------------------------------
    # Exact-match keys (Section 3.1: equality predicates)
    # ------------------------------------------------------------------

    def exact_store(self, key_identifier: int, descriptor: PartitionDescriptor,
                    partition: Partition | None = None, origin: int | None = None) -> bool:
        """Store a partition under an exact-match (SHA-1) identifier."""
        if origin is None:
            origin = self.pick_origin()
        owner = self.router.owner_of(key_identifier)
        return bool(
            self.network.send(
                origin,
                owner,
                "store-request",
                payload=(key_identifier, descriptor, partition, True),
                size_bytes=partition.size_bytes if partition else 64,
            )
        )

    def exact_lookup(
        self, key_identifier: int, origin: int | None = None
    ) -> tuple[Partition | None, int]:
        """Fetch the single partition stored under an exact identifier.

        Returns (partition-or-None, overlay hops).
        """
        if origin is None:
            origin = self.pick_origin()
        owner_id, hops = self.router.lookup(key_identifier, start_id=origin)
        store = self.stores[owner_id]
        bucket = store.bucket(key_identifier)
        if bucket is None:
            return (None, hops)
        entries = list(bucket)
        if not entries:
            return (None, hops)
        partition = self.network.send(
            origin,
            owner_id,
            "fetch-partition",
            payload=(key_identifier, entries[0].descriptor),
        )
        return (partition, hops)

    # ------------------------------------------------------------------
    # Membership changes (churn extension)
    # ------------------------------------------------------------------

    def join_peer(self, address: str):
        """Add a peer to the running system and hand over its partitions.

        The overlay is rebuilt (static mode; the protocol-level incremental
        join lives in :class:`~repro.chord.ring.ChordRing`), the new peer is
        wired to the transport with an empty store, and every cached entry
        now falling in the new peer's interval migrates to it.
        """
        if self.ring is None:
            raise ConfigError("the churn helpers require the chord overlay")
        node = self.ring.add_node(address)
        self._register_peers([node.node_id])
        self.ring.build()
        self.rebalance()
        return node

    def leave_peer(self, node_id: int) -> int:
        """Gracefully remove a peer, migrating its partitions first.

        The ring's :meth:`~repro.chord.ring.ChordRing.leave` hands back the
        identifier interval whose ownership moved; every entry the peer
        held (primary or replica) is re-placed on the identifier's current
        replica set, so no descriptor is lost and a replica that just
        became the owner's copy is promoted to primary in place.

        Returns the number of entries that created at least one new copy.
        """
        if self.ring is None:
            raise ConfigError("the churn helpers require the chord overlay")
        if len(self.ring.node_ids) <= 1:
            raise ConfigError("cannot remove the last peer of the system")
        self.network.unregister(node_id)
        self.ring.leave(node_id)
        self.ring.build()
        # The departing store stays visible as a copy source while the
        # plan runs; the plan drops its (now undesired) copies itself.
        _, moved = self._converge()
        del self.stores[node_id]
        return moved

    def _holders(
        self, is_alive: Callable[[int], bool] | None = None
    ) -> tuple[dict[Key, dict[int, bool]], dict[Key, Partition]]:
        """The planner's input: which live peers hold each entry (with
        its primary flag), plus the rows to ship with a copy — the first
        live holder's that kept them, not just the descriptor.

        With ``is_alive``, only alive stores count as holders; an entry
        found on crashed stores alone maps to ``{}`` (lost), after every
        entry a live store holds.
        """
        holders: dict[Key, dict[int, bool]] = {}
        rows: dict[Key, Partition] = {}
        down: list[PeerStore] = []
        for store in self.stores.values():
            if is_alive is not None and not is_alive(store.peer_id):
                down.append(store)
                continue
            for identifier, entry in store.entries():
                key = (identifier, entry.descriptor)
                holders.setdefault(key, {})[store.peer_id] = entry.primary
                if entry.partition is not None:
                    rows.setdefault(key, entry.partition)
        for store in down:
            for identifier, entry in store.entries():
                holders.setdefault((identifier, entry.descriptor), {})
        return holders, rows

    def _converge(self) -> tuple[int, int]:
        """Apply the full placement plan to the in-process stores.

        Returns ``(entries fixed, entries that gained a copy)``.
        """
        holders, rows = self._holders()
        fixed: set[Key] = set()
        copied: set[Key] = set()
        for action in plan_placement(holders, self.replica_owners):
            key = (action.identifier, action.descriptor)
            store = self.stores[action.node]
            fixed.add(key)
            if action.kind == "copy":
                store.store(*key, rows.get(key), primary=action.primary)
                copied.add(key)
            elif action.kind == "set_role":
                store.set_primary(*key, action.primary)
            else:
                store.remove(*key)
        return len(fixed), len(copied)

    def rebalance(self) -> int:
        """Converge every cached entry onto its current replica set.

        For each stored (identifier, descriptor): ensure all ``replicas``
        desired holders have a copy, correct primary/replica flags after
        ownership moved, and drop copies from peers outside the set.  Used
        after membership changes.  Idempotent: a second call fixes
        nothing.  Returns the number of placements that needed fixing.
        """
        return self._converge()[0]

    def repair_plan(
        self, is_alive: Callable[[int], bool]
    ) -> tuple[list[tuple], list[Key]]:
        """What anti-entropy repair has to do, and what it cannot.

        The first list holds ``(identifier, descriptor, source_id,
        partition, target_id, primary)`` copy operations: ``identifier``
        should live on ``target_id`` (one of the first ``replicas`` alive
        peers of its successor chain) but does not, and an alive
        ``source_id`` still holds it.  The second lists the entries whose
        every copy sits on crashed peers — unrepairable.  Repair only
        ever adds copies (failover placements legitimately skew flags and
        leave surplus; :meth:`rebalance` owns role changes and drops).
        :meth:`repair_replicas`, the event-driven
        :class:`~repro.sim.repair.ReplicaRepairer` and the health auditor
        all read this plan — only the transport differs.
        """
        holders, rows = self._holders(is_alive)
        copies: list[tuple] = []
        lost: list[Key] = []
        for action in plan_placement(
            holders,
            lambda identifier: self.replica_targets(identifier, is_alive),
        ):
            key = (action.identifier, action.descriptor)
            if action.kind == "copy":
                copies.append(
                    (*key, action.source, rows.get(key), action.node,
                     action.primary)
                )
            elif action.kind == "lost":
                lost.append(key)
        return copies, lost

    def repair_replicas(
        self, is_alive: Callable[[int], bool] | None = None
    ) -> int:
        """One synchronous anti-entropy pass: re-replicate every
        under-replicated identifier onto alive successors.

        Copies travel peer-to-peer over the transport (charged like any
        store), so repair traffic shows up in :class:`TrafficStats`.
        Returns the number of copies created.
        """
        alive = is_alive if is_alive is not None else self.network.is_alive
        copies = 0
        for identifier, descriptor, source, partition, target, primary in (
            self.repair_plan(alive)[0]
        ):
            try:
                self.network.send(
                    source,
                    target,
                    "store-request",
                    payload=(identifier, descriptor, partition, primary),
                    size_bytes=partition.size_bytes if partition else 64,
                )
            except PeerUnavailableError:
                self.counters.store_failures += 1
                continue
            copies += 1
        self.counters.repairs += copies
        if copies:
            logger.info("synchronous repair pass created %d copies", copies)
        return copies

    def check_placement_invariant(self) -> None:
        """Raise if any cached entry sits outside its replica set, or
        carries the wrong primary/replica flag."""
        for action in plan_placement(self._holders()[0], self.replica_owners):
            if action.kind == "drop":
                raise ConfigError(
                    f"entry for identifier {action.identifier} held by "
                    f"{action.node} but owned by "
                    f"{self.replica_owners(action.identifier)}"
                )
            if action.kind == "set_role":
                raise ConfigError(
                    f"entry for identifier {action.identifier} at "
                    f"{action.node} has primary={not action.primary}, "
                    f"expected {action.primary}"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def load_distribution(self) -> list[int]:
        """Partitions stored per peer (the quantity of Figure 11)."""
        return [self.stores[nid].partition_count for nid in self.router.node_ids]

    def total_placements(self) -> int:
        """Total stored entries across all peers."""
        return sum(self.load_distribution())

    def unique_partitions(self) -> int:
        """Number of distinct partition descriptors stored system-wide."""
        seen: set[PartitionDescriptor] = set()
        for store in self.stores.values():
            for _, entry in store.entries():
                seen.add(entry.descriptor)
        return len(seen)
