"""Ring health telemetry: sampler, invariant auditor, load-skew analytics.

Figure 11 of the paper looks at load balance once, at the end of one run.
This module turns that one-shot view into continuous visibility while the
system runs under churn:

* :class:`TelemetrySampler` — samples per-node gauges (bucket occupancy
  and bytes, queries/stores served, messages in/out, successor-list
  fullness, replica deficit, alive/degraded/crashed state, sim queue
  depth) into fixed-capacity ring-buffer time series registered in the
  system's :class:`~repro.obs.MetricsRegistry`.  It runs either as a
  periodic task on the event-driven kernel or snapshot-on-demand against
  the synchronous system.
* :class:`RingAuditor` — walks the overlay and the stored placements,
  checking structural invariants (successor/predecessor agreement,
  successor-list consistency, finger reachability; CAN zone tiling and
  neighbour symmetry), replica placement and deficits, and bucket LRU
  clock sanity, emitting a severity-graded :class:`AuditReport`.
* skew analytics — :func:`gini`, :func:`max_mean_ratio`,
  :func:`load_histogram` and :func:`hot_identifiers` over per-node loads,
  generalizing the Fig 11 experiment into a reusable module.

Everything here is a pure *read* of system state: sampling and auditing
send no messages, draw no randomness and touch no eviction clock, so a
system observed by this module behaves byte-for-byte like one that is
not (the same null-object discipline as :data:`~repro.obs.NULL_TRACE`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.placement import Finding, audit_placement
from repro.obs.log import get_logger

if TYPE_CHECKING:  # imported for typing only: core.system imports repro.obs
    from repro.core.system import RangeSelectionSystem
    from repro.sim.kernel import Simulator

__all__ = [
    "TelemetrySampler",
    "AuditFinding",
    "AuditReport",
    "RingAuditor",
    "SkewStats",
    "gini",
    "max_mean_ratio",
    "skew_stats",
    "load_histogram",
    "hot_identifiers",
    "HealthReport",
    "health_check",
    "NODE_GAUGES",
    "STATE_ALIVE",
    "STATE_DEGRADED",
    "STATE_CRASHED",
]

logger = get_logger("obs.health")

#: Node state as sampled into ``health.node.state``.
STATE_ALIVE = 0
#: Alive but under-replicated: some copy this node should hold is missing.
STATE_DEGRADED = 1
STATE_CRASHED = 2

#: The per-node gauges the sampler writes, as ``health.node.<gauge>``
#: time series labeled ``node=<id>``.
NODE_GAUGES: tuple[str, ...] = (
    "partitions",
    "buckets",
    "bytes",
    "primaries",
    "replicas",
    "queries",
    "stores",
    "msgs_out",
    "msgs_in",
    "successors",
    "deficit",
    "state",
)

#: Severity grades, most severe first.
SEVERITIES: tuple[str, ...] = ("critical", "warning", "info")


# ----------------------------------------------------------------------
# Telemetry sampler
# ----------------------------------------------------------------------


class TelemetrySampler:
    """Samples per-node health gauges into registry time series.

    Two modes share one code path:

    * **snapshot-on-demand** — call :meth:`sample_once` whenever the
      synchronous system should be observed (the ``repro health`` CLI
      does this once; experiments call it between phases);
    * **periodic** — bind a :class:`~repro.sim.kernel.Simulator` and
      :meth:`start`; a sample is taken every ``interval_ms`` of virtual
      time until :meth:`stop` (the :class:`~repro.sim.repair.ReplicaRepairer`
      scheduling pattern).

    Timestamps are the simulator's virtual clock when one is bound,
    otherwise the transport's cumulative wire time — both non-decreasing,
    so every series is monotone in time.
    """

    def __init__(
        self,
        system: "RangeSelectionSystem",
        sim: "Simulator | None" = None,
        interval_ms: float = 500.0,
        capacity: int | None = None,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("sample interval must be positive")
        self.system = system
        self.sim = sim
        self.interval_ms = interval_ms
        self.capacity = capacity
        self._timer = None
        self._running = False
        #: Samples recorded so far (each tick appends one point per series).
        self.samples_taken = 0

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """The sampler's clock: virtual ms when a simulator is bound,
        else cumulative simulated wire ms."""
        if self.sim is not None:
            return self.sim.now
        return float(self.system.network.now())

    # -- scheduling (event-driven mode) --------------------------------

    @property
    def running(self) -> bool:
        """Whether periodic sampling is currently scheduled."""
        return self._running

    def start(self) -> None:
        """Begin periodic sampling on the bound simulator (idempotent)."""
        if self.sim is None:
            raise ValueError("periodic sampling requires a simulator")
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Cancel the pending sample (idempotent)."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        assert self.sim is not None
        self._timer = self.sim.call_later(self.interval_ms, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self.sample_once()
        self._schedule_next()

    # -- sampling -------------------------------------------------------

    def _series(self, suffix: str, help: str = ""):
        return self.system.metrics.timeseries(
            f"health.{suffix}", help, capacity=self.capacity
        )

    def _messages_by_peer(self) -> tuple[dict[int, float], dict[int, float]]:
        """(sent, received) per peer, summed over the synchronous and
        event-driven transport namespaces."""
        sent: dict[int, float] = {}
        received: dict[int, float] = {}
        registry = self.system.metrics
        for namespace in ("net", "sim.net"):
            for counter_name, into in (
                ("sent_by_peer", sent),
                ("received_by_peer", received),
            ):
                metric = registry.get(f"{namespace}.{counter_name}")
                if metric is None:
                    continue
                for labels, value in metric.items():
                    peer = labels.get("peer")
                    if peer is None:
                        continue
                    into[peer] = into.get(peer, 0) + value
        return sent, received

    def _successor_fullness(self, node_id: int) -> int:
        """Successor-list length (Chord) or neighbour count (CAN)."""
        system = self.system
        if system.ring is not None:
            return len(system.ring.node(node_id).successor_list)
        overlay = getattr(system.router, "overlay", None)
        if overlay is not None:
            return len(overlay.node(node_id).neighbor_ids)
        return 0

    def sample_once(self, now: float | None = None) -> float:
        """Record one sample of every gauge; returns the timestamp used.

        A pure read: no messages, no RNG, no eviction-clock movement.
        """
        t = self.now() if now is None else now
        system = self.system
        alive = system.network.is_alive
        deficit_by_target: dict[int, int] = {}
        total_deficit = 0
        for _identifier, _desc, _src, _part, target, _primary in (
            system.repair_plan(alive)[0]
        ):
            total_deficit += 1
            deficit_by_target[target] = deficit_by_target.get(target, 0) + 1
        sent, received = self._messages_by_peer()
        series = {gauge: self._series(f"node.{gauge}") for gauge in NODE_GAUGES}
        crashed = 0
        partitions_total = 0
        for node_id in system.router.node_ids:
            store = system.stores[node_id]
            node_alive = alive(node_id)
            deficit = deficit_by_target.get(node_id, 0)
            if not node_alive:
                crashed += 1
                state = STATE_CRASHED
            elif deficit:
                state = STATE_DEGRADED
            else:
                state = STATE_ALIVE
            partitions = store.partition_count
            partitions_total += partitions
            values = {
                "partitions": partitions,
                "buckets": store.bucket_count,
                "bytes": store.stored_bytes,
                "primaries": store.primary_count,
                "replicas": store.replica_count,
                "queries": store.queries_served,
                "stores": store.stores_served,
                "msgs_out": sent.get(node_id, 0),
                "msgs_in": received.get(node_id, 0),
                "successors": self._successor_fullness(node_id),
                "deficit": deficit,
                "state": state,
            }
            for gauge, value in values.items():
                series[gauge].append(t, value, node=node_id)
        self._series("replica_deficit").append(t, total_deficit)
        self._series("crashed").append(t, crashed)
        self._series("partitions_total").append(t, partitions_total)
        if self.sim is not None:
            self._series("sim.pending_events").append(t, self.sim.pending)
        self.samples_taken += 1
        logger.debug(
            "sampled %d nodes at t=%.1f (deficit=%d crashed=%d)",
            len(system.router.node_ids), t, total_deficit, crashed,
        )
        return t


# ----------------------------------------------------------------------
# Invariant auditor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation (or informational note)."""

    severity: str  # "critical" | "warning" | "info"
    check: str  # e.g. "chord.successor", "replica-deficit"
    subject: str  # what the finding is about ("node 123", "identifier 7")
    message: str

    @classmethod
    def of(cls, finding: Finding) -> "AuditFinding":
        """An :func:`~repro.core.placement.audit_placement` finding."""
        subject = f"identifier {finding.identifier}"
        return cls(finding.severity, finding.check, subject, finding.message)

    def describe(self) -> str:
        """One-line rendering for reports."""
        return f"[{self.severity}] {self.check}: {self.subject} — {self.message}"


@dataclass
class AuditReport:
    """The outcome of one auditor walk."""

    findings: list[AuditFinding] = field(default_factory=list)
    nodes_checked: int = 0
    entries_checked: int = 0
    crashed_peers: int = 0

    @property
    def ok(self) -> bool:
        """True when no critical or warning finding exists (informational
        notes — e.g. stale surplus copies — don't fail an audit)."""
        return not any(f.severity in ("critical", "warning") for f in self.findings)

    @property
    def counts(self) -> dict[str, int]:
        """Findings per severity grade (every grade present, maybe 0)."""
        out = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            out[finding.severity] = out.get(finding.severity, 0) + 1
        return out

    def by_check(self) -> dict[str, int]:
        """Findings per check name."""
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.check] = out.get(finding.check, 0) + 1
        return out

    def findings_for(self, check: str) -> list[AuditFinding]:
        """All findings of one check."""
        return [f for f in self.findings if f.check == check]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form."""
        return {
            "ok": self.ok,
            "nodes_checked": self.nodes_checked,
            "entries_checked": self.entries_checked,
            "crashed_peers": self.crashed_peers,
            "counts": self.counts,
            "findings": [
                {
                    "severity": f.severity,
                    "check": f.check,
                    "subject": f.subject,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }

    def report(self, max_findings: int = 20) -> str:
        """Fixed-width text rendering."""
        counts = self.counts
        header = (
            f"Audit: {'OK' if self.ok else 'VIOLATIONS'} — "
            f"{self.nodes_checked} nodes, {self.entries_checked} entries, "
            f"{self.crashed_peers} crashed; "
            + ", ".join(f"{counts[s]} {s}" for s in SEVERITIES)
        )
        lines = [header]
        ordered = sorted(
            self.findings, key=lambda f: (SEVERITIES.index(f.severity), f.check)
        )
        for finding in ordered[:max_findings]:
            lines.append("  " + finding.describe())
        if len(ordered) > max_findings:
            lines.append(f"  … and {len(ordered) - max_findings} more")
        return "\n".join(lines)


class RingAuditor:
    """Walks overlay structure and replica placement, grading violations.

    Checks (severity in parentheses):

    * Chord ring structure — successor/predecessor agreement,
      successor-list consistency, finger reachability and correctness
      (critical, via :meth:`ChordRing.audit`); under CAN, zone tiling and
      neighbour symmetry (critical, via :meth:`CanOverlay.audit`).
    * Replica placement — every copy in every store, crashed ones
      included, graded by :func:`~repro.core.placement.audit_placement`:
      ``replica-deficit`` and ``primary-flag`` (warning),
      ``replica-loss`` and ``replica-placement`` (critical),
      ``stale-copy`` (info).
    * Bucket LRU clocks — each entry's ``access_clock`` must be positive
      and no later than its store's clock (warning).

    Crashes are transport-level events, so a crash by itself never
    trips a structural check — only the replica checks react, which is
    what lets an audit distinguish "ring is broken" from "data is
    under-replicated".
    """

    def __init__(self, system: "RangeSelectionSystem") -> None:
        self.system = system

    def audit(self) -> AuditReport:
        """One full walk; returns the graded report."""
        system = self.system
        alive = system.network.is_alive
        report = AuditReport()
        node_ids = system.router.node_ids
        report.nodes_checked = len(node_ids)
        report.crashed_peers = sum(1 for nid in node_ids if not alive(nid))
        self._audit_overlay(report)
        self._audit_stores(report, alive)
        if report.ok:
            logger.info(
                "audit clean: %d nodes, %d entries",
                report.nodes_checked, report.entries_checked,
            )
        else:
            logger.warning("audit found violations: %s", report.by_check())
        return report

    # -- overlay structure ---------------------------------------------

    def _audit_overlay(self, report: AuditReport) -> None:
        system = self.system
        if system.ring is not None:
            for check, node_id, message in system.ring.audit():
                report.findings.append(
                    AuditFinding(
                        "critical", f"chord.{check}", f"node {node_id}", message
                    )
                )
            return
        overlay = getattr(system.router, "overlay", None)
        if overlay is not None:
            for check, node_id, message in overlay.audit():
                subject = f"node {node_id}" if node_id >= 0 else "overlay"
                report.findings.append(
                    AuditFinding("critical", f"can.{check}", subject, message)
                )

    # -- stored copies ---------------------------------------------------

    def _audit_stores(
        self, report: AuditReport, alive: Callable[[int], bool]
    ) -> None:
        """One walk over every store, crashed ones included: grade where
        the copies sit (:func:`~repro.core.placement.audit_placement`,
        per-copy findings in walk order) and check the LRU clocks."""
        holders: dict[tuple, dict[int, bool]] = {}
        walk: dict[tuple, int] = {}
        clocks: list[AuditFinding] = []
        for store in self.system.stores.values():
            for identifier, entry in store.entries():
                key = (identifier, entry.descriptor)
                holders.setdefault(key, {})[store.peer_id] = entry.primary
                walk[(store.peer_id, *key)] = len(walk)
                if not (0 < entry.access_clock <= store.clock):
                    message = (
                        f"entry at {store.peer_id} has access_clock="
                        f"{entry.access_clock}, store clock is {store.clock}"
                    )
                    subject = f"identifier {identifier}"
                    clocks.append(AuditFinding("warning", "lru-clock", subject, message))
        report.entries_checked = len(walk)
        graded = sorted(
            audit_placement(holders, self.system, alive),
            key=lambda f: walk.get((f.node, f.identifier, f.descriptor), len(walk)),
        )
        report.findings.extend(AuditFinding.of(finding) for finding in graded)
        report.findings.extend(clocks)


# ----------------------------------------------------------------------
# Load-skew analytics
# ----------------------------------------------------------------------


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative load distribution.

    0.0 means perfectly even (every node carries the same load), 1.0
    means one node carries everything.  Empty and all-zero inputs are
    defined as 0.0.
    """
    vals = sorted(float(v) for v in values)
    n = len(vals)
    total = sum(vals)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((index + 1) * value for index, value in enumerate(vals))
    return (2.0 * weighted) / (n * total) - (n + 1) / n


def max_mean_ratio(values: Iterable[float]) -> float:
    """Peak-to-mean load ratio (1.0 = perfectly balanced; 0.0 when the
    distribution is empty or all-zero)."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    mean = sum(vals) / len(vals)
    if mean == 0:
        return 0.0
    return max(vals) / mean


@dataclass(frozen=True)
class SkewStats:
    """Summary of one load distribution."""

    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    max_mean: float
    gini: float

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.count} nodes, total {self.total:g}, mean {self.mean:.2f}, "
            f"min {self.minimum:g}, max {self.maximum:g}, "
            f"max/mean {self.max_mean:.2f}, gini {self.gini:.3f}"
        )


def skew_stats(values: Iterable[float]) -> SkewStats:
    """Compute :class:`SkewStats` for one distribution."""
    vals = [float(v) for v in values]
    if not vals:
        return SkewStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = sum(vals)
    return SkewStats(
        count=len(vals),
        total=total,
        mean=total / len(vals),
        minimum=min(vals),
        maximum=max(vals),
        max_mean=max_mean_ratio(vals),
        gini=gini(vals),
    )


def load_histogram(
    values: Iterable[float], bins: int = 10
) -> list[tuple[float, float, int]]:
    """Equal-width histogram of a load distribution.

    Returns ``(low, high, count)`` triples covering ``[min, max]``; the
    last bin is closed on both sides.  Flat distributions collapse to a
    single bin.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    vals = [float(v) for v in values]
    if not vals:
        return []
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return [(lo, hi, len(vals))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for value in vals:
        index = min(int((value - lo) / width), bins - 1)
        counts[index] += 1
    return [
        (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
    ]


def hot_identifiers(
    system: "RangeSelectionSystem", top_n: int = 5
) -> list[tuple[int, int]]:
    """The identifiers with the most stored copies system-wide.

    Returns ``(identifier, copies)`` pairs, hottest first — the
    concentration the paper's direct-placement mode induces and rehash
    placement is meant to avoid.
    """
    copies: dict[int, int] = {}
    for store in system.stores.values():
        for identifier, _entry in store.entries():
            copies[identifier] = copies.get(identifier, 0) + 1
    ranked = sorted(copies.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: max(0, top_n)]


# ----------------------------------------------------------------------
# The combined health check
# ----------------------------------------------------------------------


@dataclass
class HealthReport:
    """Audit + skew + hot identifiers, one document."""

    n_peers: int
    crashed_peers: int
    audit: AuditReport
    skew: SkewStats
    loads: list[int]
    hot: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        """True when the audit found nothing."""
        return self.audit.ok

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (the ``repro health --json`` payload)."""
        return {
            "ok": self.ok,
            "n_peers": self.n_peers,
            "crashed_peers": self.crashed_peers,
            "audit": self.audit.to_dict(),
            "skew": {
                "count": self.skew.count,
                "total": self.skew.total,
                "mean": self.skew.mean,
                "min": self.skew.minimum,
                "max": self.skew.maximum,
                "max_mean": self.skew.max_mean,
                "gini": self.skew.gini,
            },
            "loads": list(self.loads),
            "hot_identifiers": [
                {"identifier": identifier, "copies": copies}
                for identifier, copies in self.hot
            ],
        }

    def report(self) -> str:
        """Fixed-width text rendering with ASCII sparklines."""
        from repro.metrics.report import format_table, sparkline

        sections: list[str] = []
        sections.append(
            f"Health: {'OK' if self.ok else 'VIOLATIONS'} — "
            f"{self.n_peers} peers ({self.crashed_peers} crashed)"
        )
        sections.append(self.audit.report())
        sections.append("Load skew: " + self.skew.describe())
        if self.loads:
            ordered = sorted(self.loads)
            sections.append(
                "Load by node (sorted): " + sparkline(ordered)
            )
            histogram = load_histogram(self.loads)
            peak = max((count for _, _, count in histogram), default=0)
            rows = [
                [
                    f"{low:.0f}..{high:.0f}",
                    count,
                    "█" * (round(20 * count / peak) if peak else 0),
                ]
                for low, high, count in histogram
            ]
            if rows:
                sections.append(
                    format_table(
                        ["load", "nodes", ""], rows, title="Load histogram"
                    )
                )
        if self.hot:
            sections.append(
                format_table(
                    ["identifier", "copies"],
                    [[identifier, copies] for identifier, copies in self.hot],
                    title="Hot identifiers",
                )
            )
        return "\n\n".join(sections)


def health_check(
    system: "RangeSelectionSystem",
    top_n: int = 5,
) -> HealthReport:
    """Audit the overlay, summarize load skew, rank hot identifiers."""
    audit = RingAuditor(system).audit()
    loads = system.load_distribution()
    return HealthReport(
        n_peers=len(system.router.node_ids),
        crashed_peers=audit.crashed_peers,
        audit=audit,
        skew=skew_stats(loads),
        loads=loads,
        hot=hot_identifiers(system, top_n=top_n),
    )
