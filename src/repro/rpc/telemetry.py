"""One peer's observability surface: the ``telemetry`` and ``metrics``
request kinds, and the flight-recorder dump on an incident.

Like the membership and placement services it touches no socket: it
reads the registry, the flight recorder, the store and the membership
table the peer already keeps, and ``health()`` for the load figures.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.log import get_logger

if TYPE_CHECKING:
    from repro.obs.distributed import FlightRecorder
    from repro.obs.registry import MetricsRegistry
    from repro.rpc.swim import MembershipTable
    from repro.storage.store import PeerStore

__all__ = ["TELEMETRY_VERSION", "TelemetryService"]

logger = get_logger("rpc.telemetry")

#: Version tag of the ``telemetry`` RPC reply.  Scrapers check it before
#: interpreting the body; bumping it is the contract for shape changes.
TELEMETRY_VERSION = 1


class TelemetryService:
    """What one node reports about itself, and its black-box dumps."""

    def __init__(
        self,
        node_id: int,
        store: PeerStore,
        table: MembershipTable,
        *,
        metrics: MetricsRegistry,
        flight: FlightRecorder,
        health: Callable[[], dict],
        clock: Callable[[], float],
        flight_dir: str | None = None,
    ) -> None:
        self.address = table.self_address
        self.node_id = node_id
        self.store = store
        self.table = table
        self.metrics = metrics
        self.flight = flight
        self.health = health
        self.clock = clock
        self.flight_dir = flight_dir
        self.handlers = {
            "telemetry": self._telemetry,
            "metrics": lambda _payload: self.metrics.snapshot(),
        }

    def incident(self, reason: str) -> None:
        """Mark an incident in the black box and, with ``flight_dir``, append
        the whole buffer to ``flight-<address>.jsonl`` so the moments *before*
        the failure survive it.  Dump errors are counted, never raised."""
        self.flight.record_event("incident", reason=reason)
        if not self.flight_dir:
            return
        safe = self.address.replace("/", "_").replace(":", "_")
        path = os.path.join(self.flight_dir, f"flight-{safe}.jsonl")
        try:
            self.flight.dump(path, reason=reason)
            self.metrics.counter("flight.dumps", help="flight-recorder dumps written").inc()
        except OSError:
            self.metrics.counter(
                "flight.dump_failures", help="flight-recorder dumps that could not be written"
            ).inc()
            logger.warning("flight dump to %s failed", path)

    def _telemetry(self, payload: Any) -> dict:
        """One node's observability surface, in one reply: with
        ``{"spans_for": <trace id>}`` only that trace's retained span
        fragments (for stitching), otherwise the versioned snapshot the
        :class:`~repro.rpc.client.ClusterScraper` merges — metrics, queue
        depth, SWIM state, a replica census and the newest ``spans``
        fragments, stamped with both clocks (monotonic and wall)."""
        body = payload if isinstance(payload, dict) else {}
        if body.get("spans_for"):
            return {
                "version": TELEMETRY_VERSION,
                "node": self.address,
                "spans": self.flight.spans_for(str(body["spans_for"])),
            }
        roles = [entry.primary for _identifier, entry in self.store.entries()]
        entries, primaries = len(roles), sum(roles)
        health = self.health()
        return {
            "version": TELEMETRY_VERSION,
            "node": self.address,
            "node_id": self.node_id,
            "captured_mono_ms": self.clock(),
            "captured_wall_ms": time.time() * 1000.0,
            "queue_depth": health["queue_depth"],
            "pending_repair": health["pending_repair"],
            "swim": {
                "epoch": self.table.epoch,
                "incarnation": self.table.incarnation,
                "states": self.table.states(),
            },
            "census": {
                "entries": entries,
                "primaries": primaries,
                "replicas": entries - primaries,
            },
            "metrics": self.metrics.snapshot(),
            "spans": self.flight.recent(int(body.get("spans", 32))),
            "flight": {
                "recorded": self.flight.recorded,
                "retained": len(self.flight),
                "dumps": self.flight.dumps,
            },
        }
