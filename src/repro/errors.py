"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subsystems get
their own subclasses to make failures attributable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidRangeError(ReproError, ValueError):
    """A range or range set was constructed with invalid endpoints."""


class DomainError(ReproError, ValueError):
    """A value fell outside the attribute domain it was declared against."""


class HashFamilyError(ReproError, ValueError):
    """A permutation family was configured with invalid parameters."""


class ChordError(ReproError):
    """Base class for Chord overlay errors."""


class EmptyRingError(ChordError):
    """An operation required at least one node but the ring was empty."""


class NodeNotFoundError(ChordError, KeyError):
    """A node id was not present in the ring."""


class DuplicateNodeError(ChordError, ValueError):
    """A node with the same identifier already exists in the ring."""


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class UnknownPeerError(NetworkError, KeyError):
    """A message was addressed to a peer the transport does not know."""


class PeerUnavailableError(NetworkError):
    """A synchronous send targeted a peer that is currently crashed.

    The synchronous transport has no clock to express a timeout, so an
    unreachable recipient surfaces immediately as this error; callers with
    a failover path (the replicated lookup) catch it and try the next
    replica down the successor list.
    """

    def __init__(self, peer_id: int, endpoint: str | None = None) -> None:
        # A control exchange (``hello``, ``telemetry``) addresses an
        # endpoint, not a peer id (``-1``): name the endpoint.
        if peer_id == -1 and endpoint is not None:
            super().__init__(f"{endpoint} is unreachable")
        else:
            super().__init__(f"peer {peer_id} is unreachable (crashed)")
        self.peer_id = peer_id


class PeerBusyError(NetworkError):
    """A peer's bounded service queue was full and it shed the request.

    Unlike a timeout this is *explicit* back-pressure: the overloaded peer
    answers immediately with a busy reply instead of leaving the requester
    to wait out its patience, so callers can fail over (or back off) after
    one round trip rather than a full retry schedule.  Counted separately
    from timeouts in :class:`~repro.net.transport.TrafficStats`.
    """

    def __init__(self, peer_id: int) -> None:
        super().__init__(f"peer {peer_id} shed the request (service queue full)")
        self.peer_id = peer_id


class OpenCircuitError(NetworkError):
    """A request was refused locally because the destination's circuit
    breaker is open.

    No message is sent and no retry budget is consumed: the breaker has
    seen enough consecutive failures/busy replies from this peer that
    asking again before the cooldown elapses would only add load to a
    struggling destination.
    """

    def __init__(self, peer_id: int) -> None:
        super().__init__(f"circuit breaker for peer {peer_id} is open")
        self.peer_id = peer_id


class FutureCancelledError(ReproError):
    """A :class:`~repro.sim.futures.SimFuture` was cancelled before it
    settled — e.g. the losing side of a hedged lookup, or the chains a
    partial-quorum query no longer needs."""


class RequestTimeoutError(NetworkError, TimeoutError):
    """A request exhausted its retry budget without receiving a reply.

    Raised (or used to reject a :class:`~repro.sim.futures.SimFuture`) by the
    asynchronous transport when every attempt was dropped, or the recipient
    was crashed, for the whole retry schedule.
    """

    def __init__(self, recipient: int, attempts: int, waited_ms: float) -> None:
        super().__init__(
            f"request to peer {recipient} timed out after {attempts} "
            f"attempt(s) and {waited_ms:.1f} ms"
        )
        self.recipient = recipient
        self.attempts = attempts
        self.waited_ms = waited_ms


class SimulationError(ReproError):
    """The discrete-event simulator was used inconsistently (e.g. the event
    queue drained while a future someone is waiting on is still pending)."""


class SchemaError(ReproError, ValueError):
    """A relation, attribute or tuple violated the declared schema."""


class SQLSyntaxError(ReproError, ValueError):
    """The restricted SQL parser rejected a statement."""


class UnsupportedQueryError(ReproError, ValueError):
    """The statement parsed but uses features outside the paper's subset."""


class PlanningError(ReproError):
    """The planner could not produce a plan for a parsed query."""


class StorageError(ReproError):
    """A partition store rejected an operation."""


class ConfigError(ReproError, ValueError):
    """A system configuration value was out of range or inconsistent."""
