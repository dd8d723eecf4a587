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
from functools import partial

from repro.db.partition import Partition, PartitionDescriptor
from repro.net.transport import Transport
from repro.obs.distributed import TraceContext
from repro.obs.log import get_logger
from repro.obs.trace import NULL_TRACE, QueryTrace
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


# The records below are built once and never changed.  They are not
# ``frozen``: a frozen dataclass sets each field through
# ``object.__setattr__``, the larger part of building one, and a query
# builds a dozen.  ``==`` and ``hash`` are the frozen classes', field by
# field.


@dataclass(slots=True, unsafe_hash=True)
class MatchReply:
    """One owner peer's answer to a match request.

    ``peer_id`` is the peer that actually answered — under failover this
    can be a successor-list replica rather than the identifier's owner.
    """

    peer_id: int
    identifier: int
    descriptor: PartitionDescriptor | None
    score: float


@dataclass(slots=True, unsafe_hash=True)
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
        return sum([c.hops + c.failover_hops for c in self.chains])

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


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class StoreOutcome:
    """Aggregated outcome of the store fan-out (step 5)."""

    #: New *primary* placements created.
    new_placements: int
    #: Store requests answered (stored or duplicate).
    acked: int
    #: Store requests that failed (unreachable target / timeout).
    failures: int
    store_ms: float


@dataclass(slots=True, unsafe_hash=True)
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


class _Locate:
    """Steps 1-4 of one query as one continuation, which its ``l`` chains
    settle directly; ``then`` receives the :class:`LocatePhase`.  Chains
    count once all have started, those that settled while starting (a
    synchronous transport runs each to its end) in chain order."""

    __slots__ = (
        "engine", "hashed_query", "relation", "attribute", "origin", "trace",
        "span", "started", "chains", "outcomes", "remaining", "concluded",
        "then",
    )

    def __init__(
        self, engine: "QueryEngine", hashed_query: IntRange, relation: str,
        attribute: str, origin: int, trace: QueryTrace, then,
    ) -> None:
        system = engine.system
        self.engine = engine
        self.hashed_query = hashed_query
        self.relation = relation
        self.attribute = attribute
        self.origin = origin
        self.trace = trace
        self.then = then
        self.started = engine.transport.now()
        if trace is NULL_TRACE:
            identifiers = system.identifiers_for(hashed_query)
        else:
            with trace.span("hash") as hash_span:
                identifiers = system.identifiers_for(hashed_query)
                for group, identifier in enumerate(identifiers):
                    hash_span.event(
                        "group", group=group, identifier=identifier,
                        placed=system.place_identifier(identifier),
                    )
        self.span = trace.span("locate", origin=origin)
        self.outcomes: list[ChainOutcome] = []
        self.concluded = False
        self.remaining = -1  # still starting chains: settlements wait
        self.chains = [_Chain(self, identifier) for identifier in identifiers]
        self.remaining = len(self.chains)
        if not self.chains:
            self.conclude([], False)
        for chain in self.chains:
            if chain.outcome is not None:
                self.settled(chain)

    def settled(self, chain: "_Chain") -> None:
        """``chain`` answered or ran out of candidates."""
        self.remaining -= 1
        if self.concluded:
            return
        engine = self.engine
        m = engine.quorum_m
        if not m or m >= len(self.chains):
            if self.remaining == 0:
                self.conclude([c.outcome for c in self.chains], False)
            return
        # Partial quorum: answer as soon as m chains replied with a
        # good-enough best match; the stragglers are cancelled.
        outcomes = self.outcomes
        outcomes.append(chain.outcome)
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
            self.remaining > 0
            and answered >= m
            and best is not None
            and best >= engine.quorum_threshold
        ):
            self.span.event(
                "quorum", answered=answered, cancelled=self.remaining, best_score=best
            )
            for straggler in self.chains:
                straggler.cancel()
            self.conclude(list(outcomes), True)
        elif self.remaining == 0:
            self.conclude(list(outcomes), False)

    def conclude(self, chains: list[ChainOutcome], partial: bool) -> None:
        self.concluded = True
        locate_ms = self.engine.transport.now() - self.started
        route_ms = max([c.route_ms for c in chains], default=0.0)
        timeouts = failovers = 0
        best: MatchReply | None = None
        for c in chains:
            if c.timed_out:
                timeouts += 1
            elif c.failovers > 0:
                failovers += 1
            reply = c.reply
            if (
                reply is not None
                and reply.descriptor is not None
                and (best is None or reply.score > best.score)
            ):
                best = reply
        phase = LocatePhase(
            self.hashed_query, tuple(chains), partial, best, self.started,
            locate_ms=locate_ms, route_ms=route_ms, timeouts=timeouts,
            failovers=failovers,
        )
        if self.span is not NULL_TRACE:
            self.span.end(
                hops=phase.overlay_hops, timeouts=timeouts, failovers=failovers,
                best_score=best.score if best is not None else None,
                best_peer=best.peer_id if best is not None else None,
            )
        self.then(phase)


class _Chain:
    """One identifier's lookup, as one continuation object that settles
    its :class:`_Locate` once: travel the overlay path (reliable, so one
    :meth:`~repro.net.transport.Transport.travel` that lands once), then
    ask the candidates — the owner under the transport's base policy,
    each failover after one successor-pointer hop under the
    single-attempt budget, a hedge concurrently once the hedge delay
    passes; the first answer wins.  Settling (an outcome or a cancel)
    cancels every outstanding request and timer.  Exhausting every
    replica is an outcome too (``timed_out=True``): dead peers degrade
    the query instead of failing it.
    """

    __slots__ = (
        "locate", "identifier", "placed", "path", "vias", "owner", "hops",
        "span", "traced", "departed", "route_ms", "match_started",
        "candidates", "next", "active", "charged", "requests", "timers",
        "done", "outcome",
    )

    def __init__(self, locate: _Locate, identifier: int) -> None:
        engine = locate.engine
        system = engine.system
        transport = engine.transport
        self.locate = locate
        self.identifier = identifier
        self.placed = placed = system.place_identifier(identifier)
        # Untraced nobody reads the routing edges, so the router is not
        # asked to report them, and no trace call is made.
        self.traced = traced = locate.span is not NULL_TRACE
        if traced:
            self.vias = vias = []
            self.path = system.router.route(
                placed, start_id=locate.origin, recorder=lambda _f, _t, via: vias.append(via)
            )
            self.span = locate.span.span("chain", identifier=identifier, placed=placed)
            self.departed = transport.now()
        else:
            self.path = system.router.route(placed, start_id=locate.origin)
            self.span = NULL_TRACE
        self.owner = self.path[-1]
        self.hops = len(self.path) - 1
        #: next: rank of the next untried candidate; active: requests
        #: currently in flight; charged: failover hops charged so far.
        self.next = 1
        self.active = 0
        self.charged = 0
        self.requests: list[SimFuture] = []
        self.timers: list = []
        self.done = False
        self.outcome: ChainOutcome | None = None
        transport.travel(self.path, self.land)

    def land(self, delays: list[float]) -> None:
        """The route landed at the owner: plan the candidates and ask."""
        engine = self.locate.engine
        transport = engine.transport
        if self.traced:
            # Each hop stamped with its own arrival, folded from the
            # departure.
            at, path, vias = self.departed, self.path, self.vias
            for edge, delay in enumerate(delays):
                at += delay
                self.span.event_at(
                    at, "route-hop", source=path[edge], target=path[edge + 1],
                    via=vias[edge] if edge < len(vias) else "?",
                    delay_ms=delay,
                )
        self.match_started = now = transport.now()
        self.route_ms = now - self.locate.started
        candidates = engine.system.failover_candidates(
            self.identifier, is_alive=transport.is_alive, placed=self.placed
        )
        if self.owner not in candidates:
            candidates.insert(0, self.owner)
        self.candidates = candidates
        self.launch(0, False)
        hedge = engine.hedge
        if hedge is not None and len(candidates) > 1 and not self.done:
            hedge_delay = hedge.delay_ms()
            if hedge_delay is not None:
                self.timers.append(transport.call_later(hedge_delay, self.fire_hedge))

    def fire_hedge(self) -> None:
        nxt = self.next
        if self.done or nxt >= len(self.candidates):
            return
        self.next = nxt + 1
        self.launch(nxt, True)

    def launch(self, rank: int, hedged: bool) -> None:
        if self.done or rank >= len(self.candidates):
            return
        locate = self.locate
        transport = locate.engine.transport
        candidate = self.candidates[rank]
        self.active += 1
        span = self.span
        if hedged:
            transport.stats.hedges += 1
            span.event("hedge-launch", peer=candidate, rank=rank)
        observer = None
        trace_ctx = None
        if self.traced:
            span.event("attempt", peer=candidate, rank=rank)

            def observer(name: str, attrs: dict) -> None:
                span.event(
                    name if name == "breaker-open" else f"net-{name}",
                    **{"peer": candidate, **attrs},
                )

            trace_ctx = _trace_ctx(locate.trace, span)
        request = transport.request(
            locate.origin, candidate, "match-request",
            payload=(self.identifier, locate.hashed_query, locate.relation, locate.attribute),
            rank=rank, observer=observer, trace_ctx=trace_ctx,
        )
        self.requests.append(request)
        request.add_done_callback(partial(self.answered, candidate, rank, hedged))

    def answered(
        self, candidate: int, rank: int, hedged: bool, settled: SimFuture
    ) -> None:
        """The request to ``candidates[rank]`` settled."""
        self.active -= 1
        if self.done:
            return
        self.requests.remove(settled)  # nothing left to cancel there
        engine = self.locate.engine
        transport = engine.transport
        span = self.span
        if settled.failed:
            nxt = self.next
            candidates = self.candidates
            if nxt < len(candidates):
                self.next = nxt + 1
                span.event("failover", source=candidate, target=candidates[nxt])
                # One successor-pointer hop to the next replica.
                self.charged += 1
                self.timers.append(transport.hop(
                    candidate, candidates[nxt], lambda _delay: self.launch(nxt, False)
                ))
            elif self.active == 0:
                self.exhausted()
            return
        if hedged:
            transport.stats.hedge_wins += 1
            span.event("hedge-win", peer=candidate, rank=rank)
        elif rank > 0:
            transport.stats.failovers += 1
            engine.system.counters.failovers += 1
            logger.info(
                "degraded answer for identifier %d at t=%.1f: "
                "replica %d answered after %d failover step(s)",
                self.identifier, transport.now(), candidate, rank,
            )
        answer = settled.result()
        descriptor, score = answer if answer is not None else (None, 0.0)
        reply = MatchReply(candidate, self.identifier, descriptor, score)
        if self.traced:
            span.event(
                "match-reply", peer=candidate, score=reply.score,
                descriptor=str(descriptor) if descriptor is not None else None,
            )
        if engine.hedge is not None:
            engine.hedge.observe(transport.now() - self.match_started)
        self.finish(reply, False, 0 if hedged else rank, hedged)

    def exhausted(self) -> None:
        engine = self.locate.engine
        transport = engine.transport
        candidates = len(self.candidates)
        transport.stats.failover_exhausted += 1
        engine.system.counters.failed_lookups += 1
        logger.warning(
            "identifier %d unreachable at t=%.1f: all %d "
            "candidates exhausted their budget",
            self.identifier, transport.now(), candidates,
        )
        self.span.event("unreachable", candidates=candidates)
        self.finish(None, True, candidates - 1)

    def finish(
        self, reply: MatchReply | None, timed_out: bool, failovers: int,
        hedged: bool = False,
    ) -> None:
        if self.traced:
            self.span.end(
                owner=self.owner, hops=self.hops, timed_out=timed_out,
                failovers=failovers,
                answered_by=reply.peer_id if reply is not None else None,
            )
        locate = self.locate
        self.outcome = ChainOutcome(
            self.identifier, self.owner, self.hops, self.route_ms, reply,
            completed_ms=locate.engine.transport.now() - locate.started,
            timed_out=timed_out, failovers=failovers, hedged=hedged,
            failover_hops=self.charged,
        )
        self.release()
        if locate.remaining >= 0:  # else counted once every chain started
            locate.settled(self)

    def cancel(self) -> None:
        """The quorum was met without this chain."""
        if not self.done:
            self.release()
            self.span.end(cancelled=True)

    def release(self) -> None:
        # Nothing launched on the chain's behalf may keep running: the
        # losing hedge's request, queued failover hops, the hedge timer.
        self.done = True
        for timer in self.timers:
            timer.cancel()
        for request in self.requests:
            request.cancel()


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
        _Locate(
            self, hashed_query, relation, attribute, origin, trace,
            lambda phase: self._after_locate(
                phase, query, relation, attribute, origin, out, trace
            ),
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
        out: SimFuture[LocatePhase] = SimFuture()
        _Locate(
            self, hashed_query, relation, attribute, origin,
            trace if trace is not None else NULL_TRACE, out.resolve,
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
