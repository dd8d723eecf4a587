"""System configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.ranges.domain import Domain

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a :class:`RangeSelectionSystem`.

    Defaults reproduce the paper's experimental setup: 32-bit identifiers,
    ``l = 5`` groups of ``k = 20`` hash functions, approximate min-wise
    permutations (the family the paper's own simulator uses, Section 5.3),
    Jaccard in-bucket matching, no padding, store-on-miss enabled, and a
    value domain of ``[0, 1000]``.
    """

    n_peers: int = 1000
    family: str = "approx-min-wise"
    l: int = 5
    k: int = 20
    id_bits: int = 32
    domain: Domain = field(default_factory=lambda: Domain("value", 0, 1000))
    matcher: str = "jaccard"
    padding: float = 0.0
    store_on_miss: bool = True
    local_index: bool = False
    max_partitions_per_peer: int | None = None
    placement: str = "rehash"
    #: Which DHT routes identifiers to owners: "chord" (the paper's choice)
    #: or "can" (its named alternative, Section 3.1).
    overlay: str = "chord"
    can_dimensions: int = 2
    #: Replication factor ``r``: each bucket entry is stored at the
    #: identifier's owner and its ``r - 1`` ring successors, and lookups
    #: fail over down that chain when the owner is unreachable.  ``1``
    #: reproduces the paper's unreplicated scheme.
    replicas: int = 1
    #: Bounded per-peer service queue capacity on the event-driven
    #: transport (requests queued or in service); ``0`` disables the queue
    #: model entirely — peers serve instantly, the pre-overload behaviour.
    peer_queue: int = 0
    #: Per-peer service rate in requests per second (event-driven
    #: transport).  Required positive when ``peer_queue`` is on; each
    #: request then occupies the server for ``1000 / service_rate`` ms.
    service_rate: float = 0.0
    #: Launch a backup lookup for a chain still unanswered at the live
    #: p95 chain latency (first answer wins, loser cancelled).
    hedge: bool = False
    #: Partial-quorum early completion: answer once this many of the
    #: ``l`` chains replied, if the best match clears
    #: ``quorum_threshold``.  ``0`` waits for all ``l`` chains.
    quorum: int = 0
    #: Matcher score the best reply must reach before a partial quorum
    #: may answer early.
    quorum_threshold: float = 0.9
    #: Per-destination circuit breakers on the event-driven transport.
    breaker: bool = False
    #: Per-destination Jacobson RTT-based timeouts plus jittered
    #: exponential retry backoff on the event-driven transport.
    adaptive_timeout: bool = False
    seed: int = 2003

    def __post_init__(self) -> None:
        if self.n_peers <= 0:
            raise ConfigError("n_peers must be positive")
        if self.l <= 0 or self.k <= 0:
            raise ConfigError("l and k must be positive")
        if not 1 <= self.id_bits <= 64:
            raise ConfigError("id_bits must be within [1, 64]")
        if self.padding < 0:
            raise ConfigError("padding must be non-negative")
        if (
            self.max_partitions_per_peer is not None
            and self.max_partitions_per_peer <= 0
        ):
            raise ConfigError("max_partitions_per_peer must be positive")
        if self.placement not in ("rehash", "direct"):
            raise ConfigError(
                f"placement must be 'rehash' or 'direct', got {self.placement!r}"
            )
        if self.overlay not in ("chord", "can"):
            raise ConfigError(
                f"overlay must be 'chord' or 'can', got {self.overlay!r}"
            )
        if self.can_dimensions < 1:
            raise ConfigError("can_dimensions must be at least 1")
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        if self.replicas > 1 and self.overlay != "chord":
            raise ConfigError(
                "successor-list replication requires the chord overlay"
            )
        if self.replicas > self.n_peers:
            raise ConfigError("replicas cannot exceed n_peers")
        if self.peer_queue < 0:
            raise ConfigError("peer_queue cannot be negative")
        if self.service_rate < 0:
            raise ConfigError("service_rate cannot be negative")
        if self.peer_queue > 0 and self.service_rate <= 0:
            raise ConfigError(
                "a bounded peer queue needs a positive service_rate"
            )
        if self.quorum < 0:
            raise ConfigError("quorum cannot be negative")
        if self.quorum > self.l:
            raise ConfigError("quorum cannot exceed l (the number of chains)")
        if not 0.0 < self.quorum_threshold <= 1.0:
            raise ConfigError("quorum_threshold must be in (0, 1]")

    @property
    def successor_list_size(self) -> int:
        """Chord successor-list length ``r``: at least 4, and long enough
        to name every replica.  Derived, not a field: it adds no option."""
        return max(4, self.replicas)

    def describe(self) -> str:
        """One-line summary for reports."""
        pad = f", pad={self.padding:.0%}" if self.padding else ""
        return (
            f"{self.n_peers} peers, {self.family} l={self.l} k={self.k}, "
            f"matcher={self.matcher}{pad}, domain=[{self.domain.low}, "
            f"{self.domain.high}]"
        )
