"""The transport-agnostic query engine (paper Section 4, once).

Query procedure, exactly as the paper's pseudocode sketches it:

1. hash the (possibly padded) selection range to ``l`` identifiers;
2. route each identifier through the overlay to its owning peer, counting
   hops;
3. each owner searches the identifier's bucket for its best match and
   replies with the candidate descriptor and score — failing over down the
   successor list when the owner is unreachable;
4. the querying peer picks the overall best reply (and optionally fetches
   the winning partition's rows);
5. "if none of the match is exact, also store the computed partition at
   the peers holding the computed identifiers."

The engine is written in continuation-passing style against the
:class:`~repro.net.transport.Transport` interface: every chain advances
through ``travel -> attempt -> (failover hop -> attempt ->) reply``
callbacks, the whole overlay route landing in one step.
On the event-driven transport those callbacks fire at later virtual
instants and the ``l`` chains interleave; on the synchronous transport
every callback fires before its scheduling call returns, so the identical
code executes the chains sequentially — the classic synchronous path.  On
the socket transport the callbacks fire from a real asyncio event loop.

Canonical replica-chain semantics (one behavior for every transport; the
sync/sim divergences this unification removed are documented in DESIGN
§11):

- candidate order: the nominal replica set first, then the alive repair
  targets, the routed owner always first;
- the owner attempt runs under the transport's base retry policy, each
  failover attempt under a single-attempt budget;
- each failover step is charged one successor-pointer routing hop and
  counted in query-level ``overlay_hops``; per-chain
  :attr:`ChainOutcome.hops` stays routing-only;
- system counters (queries, stores, placements, failovers, ...) are
  maintained identically on every transport;
- ``replica_stores`` counts replica store requests that were *answered*,
  not merely issued.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.partition import Partition, PartitionDescriptor
from repro.net.transport import Transport
from repro.obs.distributed import TraceContext
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACE, QueryTrace, Span
from repro.ranges.interval import IntRange
from repro.sim.futures import SimFuture, gather
from repro.sim.policies import HedgePolicy

__all__ = [
    "MatchReply",
    "ChainOutcome",
    "LocatePhase",
    "StoreOutcome",
    "TimedQueryResult",
    "QueryEngine",
]

logger = get_logger("rpc.engine")


def _trace_ctx(trace: QueryTrace, span) -> TraceContext | None:
    """The wire trace context for a request issued under ``span``.

    ``None`` (send nothing) unless the trace carries a distributed
    trace id — so in-process and untraced runs put zero extra bytes on
    the wire, and :data:`NULL_TRACE` (whose ``trace_id``/``span_id`` are
    ``None`` class attributes) short-circuits for free.
    """
    trace_id = getattr(trace, "trace_id", None)
    if not trace_id:
        return None
    return TraceContext(trace_id, getattr(span, "span_id", None))


@dataclass(frozen=True, slots=True)
class MatchReply:
    """One owner peer's answer to a match request.

    ``peer_id`` is the peer that actually answered — under failover this
    can be a successor-list replica rather than the identifier's owner.
    """

    peer_id: int
    identifier: int
    descriptor: PartitionDescriptor | None
    score: float


@dataclass(frozen=True, slots=True)
class ChainOutcome:
    """One identifier lookup chain, timed."""

    identifier: int
    #: The identifier's nominal owner (the peer routing arrived at); under
    #: failover the answering peer is ``reply.peer_id`` instead.
    owner: int
    hops: int
    #: Hop-by-hop routing time of this chain.
    route_ms: float
    #: Reply from whichever replica answered; None when every candidate's
    #: budget ran out.
    reply: MatchReply | None
    #: Time from query start until this chain settled (transport clock).
    completed_ms: float
    timed_out: bool
    #: Failover steps taken down the successor list (0 = owner answered).
    failovers: int = 0
    #: Whether the answer came from a hedged (backup) lookup.
    hedged: bool = False
    #: Successor-pointer hops charged while failing over; query-level hop
    #: totals are ``hops + failover_hops`` (``hops`` stays routing-only).
    failover_hops: int = 0


class _ChainTotals:
    """What both results read off their ``chains``, one chain per
    identifier (or per answered identifier, after a partial quorum)."""

    __slots__ = ()

    @property
    def identifiers(self) -> tuple[int, ...]:
        """The looked-up identifiers, in chain order."""
        return tuple(c.identifier for c in self.chains)

    @property
    def overlay_hops(self) -> int:
        """Routing plus failover hops, summed over chains."""
        return sum(c.hops + c.failover_hops for c in self.chains)

    @property
    def answered_by(self) -> tuple[int, ...]:
        """Per chain: the answering peer, or the nominal owner when the
        whole replica chain was unreachable."""
        return tuple(
            c.reply.peer_id if c.reply is not None else c.owner
            for c in self.chains
        )

    @property
    def peers_contacted(self) -> int:
        """Distinct peers that answered; an unreachable replica chain
        contributes none."""
        return len({c.reply.peer_id for c in self.chains if c.reply is not None})


@dataclass(frozen=True, slots=True)
class LocatePhase(_ChainTotals):
    """Aggregated outcome of the locate phase (steps 1-4, no fetch)."""

    hashed_query: IntRange
    chains: tuple[ChainOutcome, ...]
    #: Whether a partial quorum answered early (stragglers cancelled).
    partial: bool
    best: MatchReply | None
    started: float
    locate_ms: float
    route_ms: float
    #: Chains that exhausted every replica's budget.
    timeouts: int
    #: Chains answered by a non-primary replica.
    failovers: int


@dataclass(frozen=True, slots=True)
class StoreOutcome:
    """Aggregated outcome of the store fan-out (step 5)."""

    #: New *primary* placements created.
    new_placements: int
    #: Store requests answered (stored or duplicate).
    acked: int
    #: Store requests that failed (unreachable target / timeout).
    failures: int
    store_ms: float


@dataclass(frozen=True, slots=True)
class TimedQueryResult(_ChainTotals):
    """Outcome of one query on any transport, with phase timings.

    ``similarity`` is Jaccard between the original query and the match
    (the x-axis of Figures 6-7); ``recall`` is the containment of the
    original query in the match (the x-axis of Figures 8-10).  Both are
    0.0 when nothing matched.

    On the synchronous transport the ``*_ms`` fields measure cumulative
    simulated wire time rather than wall/virtual clock; on the socket
    transport they are wall-clock milliseconds.
    """

    query: IntRange
    hashed_query: IntRange
    matched: PartitionDescriptor | None
    similarity: float
    recall: float
    matcher_score: float
    exact: bool
    stored: bool
    chains: tuple[ChainOutcome, ...]
    #: Chains that exhausted every replica's retry budget (<= l).
    timeouts: int
    #: Chains answered by a successor-list replica after the owner was
    #: unreachable.
    failovers: int
    #: Store-on-miss placements that themselves failed.
    store_failures: int
    route_ms: float
    match_ms: float
    locate_ms: float
    fetch_ms: float
    store_ms: float
    total_ms: float
    #: Whether a partial quorum answered early (remaining chains cancelled).
    partial: bool = False
    fetched: Partition | None = None

    @property
    def found(self) -> bool:
        """Whether any candidate partition was located."""
        return self.matched is not None

    @property
    def degraded(self) -> bool:
        """Whether the answer came from fewer than ``l`` replies."""
        return self.timeouts > 0 or self.partial


class QueryEngine:
    """The query procedure, bound to one system and one transport.

    ``system`` provides the topology and bookkeeping surface shared by
    every deployment: ``config``, ``counters``, ``router``,
    ``pad_query``, ``identifiers_for``, ``place_identifier``,
    ``replica_owners`` and ``failover_candidates``.
    :class:`~repro.core.system.RangeSelectionSystem` is the usual provider; the socket client supplies a stores-less mirror
    of the same surface.
    """

    def __init__(
        self,
        system,
        transport: Transport,
        *,
        quorum_m: int = 0,
        quorum_threshold: float = 0.9,
        hedge: HedgePolicy | None = None,
        fetch_rows: bool = False,
    ) -> None:
        self.system = system
        self.transport = transport
        self.quorum_m = quorum_m
        self.quorum_threshold = quorum_threshold
        self.hedge = hedge
        self.fetch_rows = fetch_rows

    # -- the query procedure -------------------------------------------

    def query(
        self,
        query: IntRange,
        relation: str,
        attribute: str,
        origin: int,
        padding: float | None = None,
        trace: QueryTrace | None = None,
    ) -> SimFuture[TimedQueryResult]:
        """Schedule one full query; resolves when all phases finish.

        On a clocked transport, drive its event loop to make time pass; on
        the synchronous transport the returned future is already settled.
        A ``trace`` records the whole lifecycle — every chain's route hops,
        each replica attempt with its failovers, the store fan-out.
        """
        trace = trace if trace is not None else NULL_TRACE
        hashed_query, applied = self.system.pad_query(query, padding)
        if applied > 0:
            trace.event("padded", padding=applied, hashed=str(hashed_query))
        out: SimFuture[TimedQueryResult] = SimFuture()
        located = self.locate(
            hashed_query, relation, attribute, origin, trace=trace
        )
        located.add_done_callback(
            lambda settled: self._after_locate(
                settled.result(), query, relation, attribute, origin,
                out, trace,
            )
        )
        return out

    def locate(
        self,
        hashed_query: IntRange,
        relation: str,
        attribute: str,
        origin: int,
        trace: QueryTrace | None = None,
    ) -> SimFuture[LocatePhase]:
        """Steps 1-4 of the query procedure (no fetching, no storing).

        Hashes the range, runs the ``l`` lookup chains over the transport
        (concurrently where it has a clock), and resolves with the
        aggregated :class:`LocatePhase`.  Only failover bookkeeping touches
        the system counters here; query-level counting happens in
        :meth:`query`.
        """
        trace = trace if trace is not None else NULL_TRACE
        system = self.system
        started = self.transport.now()
        with trace.span("hash") as hash_span:
            identifiers = system.identifiers_for(hashed_query)
            if hash_span:
                for group, identifier in enumerate(identifiers):
                    hash_span.event(
                        "group",
                        group=group,
                        identifier=identifier,
                        placed=system.place_identifier(identifier),
                    )
        locate_span = trace.span("locate", origin=origin)
        chain_futures = [
            self._run_chain(
                origin, identifier, hashed_query, relation, attribute,
                started, parent=locate_span, trace=trace,
            )
            for identifier in identifiers
        ]
        out: SimFuture[LocatePhase] = SimFuture()

        def conclude(chains: list[ChainOutcome], partial: bool) -> None:
            locate_ms = self.transport.now() - started
            route_ms = max((c.route_ms for c in chains), default=0.0)
            timeouts = sum(1 for c in chains if c.timed_out)
            failovers = sum(
                1 for c in chains if not c.timed_out and c.failovers > 0
            )
            best = max(
                (
                    c.reply
                    for c in chains
                    if c.reply is not None and c.reply.descriptor is not None
                ),
                key=lambda reply: reply.score,
                default=None,
            )
            phase = LocatePhase(
                hashed_query=hashed_query,
                chains=tuple(chains),
                partial=partial,
                best=best,
                started=started,
                locate_ms=locate_ms,
                route_ms=route_ms,
                timeouts=timeouts,
                failovers=failovers,
            )
            locate_span.end(
                hops=phase.overlay_hops,
                timeouts=timeouts,
                failovers=failovers,
                best_score=best.score if best is not None else None,
                best_peer=best.peer_id if best is not None else None,
            )
            out.resolve(phase)

        m = self.quorum_m
        if m and m < len(chain_futures):
            # Partial quorum: answer as soon as m chains replied with a
            # good-enough best match; the stragglers are cancelled.
            threshold = self.quorum_threshold
            outcomes: list[ChainOutcome] = []
            remaining = [len(chain_futures)]
            completing = [False]

            def on_chain(settled: SimFuture) -> None:
                remaining[0] -= 1
                if completing[0]:
                    return  # a cancellation triggered by early completion
                if not settled.failed:
                    outcomes.append(settled.result())
                answered = sum(1 for c in outcomes if c.reply is not None)
                best = max(
                    (
                        c.reply.score
                        for c in outcomes
                        if c.reply is not None and c.reply.descriptor is not None
                    ),
                    default=None,
                )
                if (
                    remaining[0] > 0
                    and answered >= m
                    and best is not None
                    and best >= threshold
                ):
                    completing[0] = True
                    locate_span.event(
                        "quorum",
                        answered=answered,
                        cancelled=remaining[0],
                        best_score=best,
                    )
                    for chain_future in chain_futures:
                        chain_future.cancel()
                    conclude(list(outcomes), partial=True)
                elif remaining[0] == 0:
                    completing[0] = True
                    conclude(list(outcomes), partial=False)

            for chain_future in chain_futures:
                chain_future.add_done_callback(on_chain)
        else:
            gather(chain_futures).add_done_callback(
                lambda settled: conclude(settled.result(), False)
            )
        return out

    def store(
        self,
        r: IntRange,
        relation: str,
        attribute: str,
        origin: int,
        identifiers: "list[int] | None" = None,
        partition: Partition | None = None,
        trace: QueryTrace | None = None,
    ) -> SimFuture[StoreOutcome]:
        """Step 5: store a partition at the ``l`` identifier owners.

        With ``replicas = r > 1`` each identifier's entry is additionally
        placed on the owner's ``r - 1`` ring successors, marked as
        replicas.  Unreachable targets are skipped and counted as
        ``store_failures`` — the repair loop re-establishes the
        replication factor later.
        """
        trace = trace if trace is not None else NULL_TRACE
        system = self.system
        if identifiers is None:
            identifiers = system.identifiers_for(r)
        descriptor = PartitionDescriptor(relation, attribute, r)
        size = partition.size_bytes if partition is not None else 64
        store_started = self.transport.now()
        store_span = trace.span("store", descriptor=str(descriptor))
        requests: list[SimFuture] = []
        primaries: list[bool] = []
        for identifier in identifiers:
            for rank, target in enumerate(system.replica_owners(identifier)):
                primary = rank == 0
                store_span.event(
                    "placement",
                    identifier=identifier,
                    target=target,
                    primary=primary,
                )
                primaries.append(primary)
                requests.append(
                    self.transport.request(
                        origin,
                        target,
                        "store-request",
                        payload=(identifier, descriptor, partition, primary),
                        size_bytes=size,
                        trace_ctx=_trace_ctx(trace, store_span),
                    )
                )
        out: SimFuture[StoreOutcome] = SimFuture()

        def on_stored(settled: SimFuture) -> None:
            outcomes = settled.result()
            counters = system.counters
            failures = 0
            new_placements = 0
            for primary, value in zip(primaries, outcomes):
                if isinstance(value, Exception):
                    failures += 1
                    counters.store_failures += 1
                    continue
                if not primary:
                    self.transport.stats.replica_stores += 1
                if value:
                    if primary:
                        new_placements += 1
                    else:
                        counters.replica_placements += 1
            store_span.end(
                placements=len(outcomes) - failures,
                failures=failures,
                new_placements=new_placements,
            )
            counters.stores += 1
            counters.placements += new_placements
            out.resolve(
                StoreOutcome(
                    new_placements=new_placements,
                    acked=len(outcomes) - failures,
                    failures=failures,
                    store_ms=self.transport.now() - store_started,
                )
            )

        gather(requests).add_done_callback(on_stored)
        return out

    # -- internals -----------------------------------------------------

    def _run_chain(
        self,
        origin: int,
        identifier: int,
        hashed_query: IntRange,
        relation: str,
        attribute: str,
        started: float,
        parent: "Span | None" = None,
        trace: "QueryTrace | None" = None,
    ) -> SimFuture[ChainOutcome]:
        """One identifier: travel the overlay path, then ask the owner —
        failing over down the successor list when the owner is
        unreachable.

        Routing hops are charged per edge but modelled as reliable — the
        iterative Chord lookup retries hops internally — so the route is
        one :meth:`~repro.net.transport.Transport.travel` that lands once,
        at its last hop's arrival; the request/reply
        legs to the replicas are where loss and crashes bite.  The first
        attempt (the owner) runs under the transport's base policy; each
        failover attempt gets the single-attempt failover budget and is
        charged one successor-pointer hop.  With hedging enabled, a chain
        still unanswered at the hedge delay additionally launches the next
        untried replica *concurrently* — first answer wins, and settling
        the chain (resolve or cancel) cancels every outstanding request
        and timer.  The chain future always *resolves* (exhausting every
        replica yields ``timed_out=True``), so dead peers degrade the
        query instead of failing it.
        """
        transport = self.transport
        system = self.system
        parent = parent if parent is not None else NULL_TRACE
        trace = trace if trace is not None else NULL_TRACE
        placed = system.place_identifier(identifier)
        # Untraced (``parent`` is the falsy NULL_TRACE) nobody reads the
        # routing edges, so the router is not asked to report them.
        vias: list[str] = []
        if parent:
            path = system.router.route(
                placed,
                start_id=origin,
                recorder=lambda _from, _to, via: vias.append(via),
            )
        else:
            path = system.router.route(placed, start_id=origin)
        owner = path[-1]
        hops = len(path) - 1
        span = parent.span("chain", identifier=identifier, placed=placed)
        chain: SimFuture[ChainOutcome] = SimFuture()
        outstanding: list[SimFuture] = []
        pending_timers: list = []

        def on_chain_settled(settled: SimFuture) -> None:
            # Whether the chain resolved or was cancelled (quorum already
            # met), nothing launched on its behalf may keep running: the
            # losing hedge's request, queued failover hops, the hedge
            # timer — all released here.
            for timer in pending_timers:
                timer.cancel()
            for request in outstanding:
                request.cancel()
            if settled.cancelled:
                span.end(cancelled=True)

        chain.add_done_callback(on_chain_settled)

        def finish(
            reply: MatchReply | None,
            route_ms: float,
            timed_out: bool,
            failovers: int,
            hedged: bool = False,
            failover_hops: int = 0,
        ) -> None:
            if chain.done:
                return
            span.end(
                owner=owner,
                hops=hops,
                timed_out=timed_out,
                failovers=failovers,
                answered_by=reply.peer_id if reply is not None else None,
            )
            chain.resolve(
                ChainOutcome(
                    identifier=identifier,
                    owner=owner,
                    hops=hops,
                    route_ms=route_ms,
                    reply=reply,
                    completed_ms=transport.now() - started,
                    timed_out=timed_out,
                    failovers=failovers,
                    hedged=hedged,
                    failover_hops=failover_hops,
                )
            )

        def ask_replicas(delays) -> None:
            # Runs once, when the route lands; a traced chain stamps each
            # hop with its own arrival, folded from the departure.
            if span:
                at = departed
                for edge, delay in enumerate(delays):
                    at += delay
                    span.event_at(
                        at, "route-hop", source=path[edge],
                        target=path[edge + 1],
                        via=vias[edge] if edge < len(vias) else "?",
                        delay_ms=delay,
                    )
            route_ms = transport.now() - started
            match_started = transport.now()
            candidates = system.failover_candidates(
                identifier, is_alive=transport.is_alive
            )
            if owner not in candidates:
                candidates.insert(0, owner)
            #: next: rank of the next untried candidate; active: requests
            #: currently in flight; charged: failover hops charged so far.
            state = {"next": 1, "active": 0, "charged": 0}

            def exhausted() -> None:
                transport.stats.failover_exhausted += 1
                system.counters.failed_lookups += 1
                logger.warning(
                    "identifier %d unreachable at t=%.1f: all %d "
                    "candidates exhausted their budget",
                    identifier, transport.now(), len(candidates),
                )
                span.event("unreachable", candidates=len(candidates))
                finish(
                    None, route_ms, timed_out=True,
                    failovers=len(candidates) - 1,
                    failover_hops=state["charged"],
                )

            def launch(rank: int, hedged: bool) -> None:
                if chain.done or rank >= len(candidates):
                    return
                candidate = candidates[rank]
                state["active"] += 1
                if hedged:
                    transport.stats.hedges += 1
                    span.event("hedge-launch", peer=candidate, rank=rank)
                span.event("attempt", peer=candidate, rank=rank)
                request = transport.request(
                    origin,
                    candidate,
                    "match-request",
                    payload=(identifier, hashed_query, relation, attribute),
                    rank=rank,
                    observer=(
                        lambda name, attrs: span.event(
                            name if name == "breaker-open" else f"net-{name}",
                            **{"peer": candidate, **attrs},
                        )
                    ) if span else None,
                    trace_ctx=_trace_ctx(trace, span),
                )
                outstanding.append(request)

                def on_done(settled: SimFuture) -> None:
                    state["active"] -= 1
                    if chain.done:
                        return
                    if settled.failed:
                        nxt = state["next"]
                        if nxt < len(candidates):
                            state["next"] = nxt + 1
                            span.event(
                                "failover",
                                source=candidate,
                                target=candidates[nxt],
                            )
                            # One successor-pointer hop to the next replica.
                            state["charged"] += 1
                            pending_timers.append(
                                transport.hop(
                                    candidate,
                                    candidates[nxt],
                                    lambda _delay: launch(nxt, hedged=False),
                                )
                            )
                        elif state["active"] == 0:
                            exhausted()
                        return
                    if hedged:
                        transport.stats.hedge_wins += 1
                        span.event("hedge-win", peer=candidate, rank=rank)
                    elif rank > 0:
                        transport.stats.failovers += 1
                        system.counters.failovers += 1
                        logger.info(
                            "degraded answer for identifier %d at t=%.1f: "
                            "replica %d answered after %d failover step(s)",
                            identifier, transport.now(), candidate, rank,
                        )
                    answer = settled.result()
                    if answer is None:
                        reply = MatchReply(candidate, identifier, None, 0.0)
                    else:
                        descriptor, score = answer
                        reply = MatchReply(candidate, identifier, descriptor, score)
                    if span:
                        span.event(
                            "match-reply",
                            peer=candidate,
                            score=reply.score,
                            descriptor=(
                                str(reply.descriptor)
                                if reply.descriptor is not None
                                else None
                            ),
                        )
                    if self.hedge is not None:
                        self.hedge.observe(transport.now() - match_started)
                    finish(
                        reply, route_ms, timed_out=False,
                        failovers=0 if hedged else rank, hedged=hedged,
                        failover_hops=state["charged"],
                    )

                request.add_done_callback(on_done)

            launch(0, hedged=False)
            if self.hedge is not None and len(candidates) > 1:
                hedge_delay = self.hedge.delay_ms()
                if hedge_delay is not None:

                    def fire_hedge() -> None:
                        if chain.done or state["next"] >= len(candidates):
                            return
                        nxt = state["next"]
                        state["next"] = nxt + 1
                        launch(nxt, hedged=True)

                    pending_timers.append(
                        transport.call_later(hedge_delay, fire_hedge)
                    )

        departed = transport.now()
        transport.travel(path, ask_replicas)
        return chain

    def _after_locate(
        self,
        phase: LocatePhase,
        query: IntRange,
        relation: str,
        attribute: str,
        origin: int,
        out: SimFuture[TimedQueryResult],
        trace: QueryTrace,
    ) -> None:
        transport = self.transport
        config = self.system.config
        counters = self.system.counters
        hashed_query = phase.hashed_query
        best = phase.best
        matched = best.descriptor if best is not None else None
        matcher_score = best.score if best is not None else 0.0
        exact = matched is not None and matched.range == hashed_query

        def finish(
            fetched: Partition | None,
            fetch_ms: float,
            stored: bool,
            store_failures: int,
            store_ms: float,
        ) -> None:
            similarity = matched.jaccard_to(query) if matched is not None else 0.0
            recall = matched.containment_of(query) if matched is not None else 0.0
            counters.queries += 1
            counters.overlay_hops += phase.overlay_hops
            if exact:
                counters.exact_hits += 1
            if matched is None:
                counters.misses += 1
            if trace:
                trace.end(
                    matched=str(matched) if matched is not None else None,
                    similarity=similarity,
                    recall=recall,
                    exact=exact,
                    stored=stored,
                    hops=phase.overlay_hops,
                    timeouts=phase.timeouts,
                    failovers=phase.failovers,
                    degraded="partial" if phase.partial else (phase.timeouts > 0),
                    total_ms=transport.now() - phase.started,
                )
            out.resolve(
                TimedQueryResult(
                    query=query,
                    hashed_query=hashed_query,
                    matched=matched,
                    similarity=similarity,
                    recall=recall,
                    matcher_score=matcher_score,
                    exact=exact,
                    stored=stored,
                    chains=phase.chains,
                    timeouts=phase.timeouts,
                    failovers=phase.failovers,
                    store_failures=store_failures,
                    route_ms=phase.route_ms,
                    match_ms=phase.locate_ms - phase.route_ms,
                    locate_ms=phase.locate_ms,
                    fetch_ms=fetch_ms,
                    store_ms=store_ms,
                    total_ms=transport.now() - phase.started,
                    partial=phase.partial,
                    fetched=fetched,
                )
            )

        def store_phase(fetched: Partition | None, fetch_ms: float) -> None:
            if exact or not config.store_on_miss:
                finish(fetched, fetch_ms, stored=False, store_failures=0, store_ms=0.0)
                return
            stored_future = self.store(
                hashed_query,
                relation,
                attribute,
                origin,
                identifiers=list(phase.identifiers),
                trace=trace,
            )
            stored_future.add_done_callback(
                lambda settled: finish(
                    fetched,
                    fetch_ms,
                    stored=True,
                    store_failures=settled.result().failures,
                    store_ms=settled.result().store_ms,
                )
            )

        if self.fetch_rows and best is not None:
            fetch_started = transport.now()
            fetch_span = trace.span(
                "fetch", peer=best.peer_id, descriptor=str(best.descriptor)
            )
            fetch = transport.request(
                origin,
                best.peer_id,
                "fetch-partition",
                payload=(best.identifier, best.descriptor),
                trace_ctx=_trace_ctx(trace, fetch_span),
            )

            def on_fetched(settled: SimFuture) -> None:
                fetched = None if settled.failed else settled.result()
                fetch_span.end(ok=not settled.failed)
                store_phase(fetched, transport.now() - fetch_started)

            fetch.add_done_callback(on_fetched)
        else:
            store_phase(None, 0.0)
