"""Structured query-lifecycle tracing.

The paper's evaluation is entirely about per-query cost — hops to the
``l`` identifier owners, match quality at each contacted bucket, the
store-on-miss fan-out — but the counters only ever exposed *totals*.  A
:class:`QueryTrace` records one query end to end as a tree of spans with
timestamped events: the hashing of each of the ``l`` groups, each lookup
chain hop by hop (with the finger-table edge that produced the hop),
every match reply and its score, failover steps down the successor list,
retry/timeout waits on the event-driven transport, and each store-on-miss
placement.  Both query paths emit the same span vocabulary, so a trace
from the synchronous :meth:`~repro.core.system.RangeSelectionSystem.query`
and one from the event-driven
:meth:`~repro.sim.query.AsyncQueryEngine.run` diff cleanly.

Span vocabulary::

    query                     the root span (one per trace)
      hash                    group hashing; one "group" event per identifier
      locate                  the l concurrent (or sequential) lookups
        chain                 one identifier's lookup; attrs: identifier, owner
          route-hop events    one per overlay edge, with the routing detail
          attempt events      one per replica asked, with the outcome
          failover events     successor-list steps after a dead owner
          net events          send/retry/timeout/reply (event-driven path)
          match-reply event   the answering peer's descriptor and score
      fetch                   winning partition retrieval (when enabled)
      store                   store-on-miss fan-out; one "placement" event
                              per (identifier, replica) target

Timestamps come from the trace's ``clock`` — the simulator's virtual
``now`` on the event-driven path, the transport's cumulative simulated
wire time on the synchronous path, or a plain monotonically increasing
step counter when neither is bound.
"""

from __future__ import annotations

import json
import os
import random
from itertools import count
from typing import Any, Callable, Iterator

__all__ = ["TraceEvent", "Span", "QueryTrace", "NULL_TRACE", "new_span_id"]

def _new_span_prefix() -> None:
    """Process-unique prefix for span ids.  Span ids only have to be
    unique *within one stitched trace*, whose fragments come from a
    handful of OS processes — pid plus 16 random bits makes cross-process
    collisions negligible without dragging uuid4 into every span
    construction.  Re-derived in a forked child (every peer of a
    ``LocalCluster`` is one), which would otherwise mint its parent's ids."""
    global _SPAN_PREFIX, _SPAN_SEQUENCE
    _SPAN_PREFIX = f"{os.getpid():x}{random.getrandbits(16):04x}"
    _SPAN_SEQUENCE = count(1)


_new_span_prefix()
os.register_at_fork(after_in_child=_new_span_prefix)


def new_span_id() -> str:
    """A cheap process-unique span id (``<pid><rand>-<seq>``)."""
    return f"{_SPAN_PREFIX}-{next(_SPAN_SEQUENCE):x}"


class TraceEvent:
    """One timestamped point event inside a span."""

    __slots__ = ("name", "at_ms", "attrs")

    def __init__(self, name: str, at_ms: float, attrs: dict[str, Any]) -> None:
        self.name = name
        self.at_ms = at_ms
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "at_ms": self.at_ms, "attrs": self.attrs}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceEvent({self.name!r}, at_ms={self.at_ms}, attrs={self.attrs!r})"


class Span:
    """One named, timed region of a query's lifecycle.

    Spans nest (``span.span(...)``) and carry point events
    (``span.event(...)``).  They work both as context managers — the
    synchronous path uses ``with`` — and as explicitly ``end()``-ed
    objects held across callbacks, which is what the event-driven path
    needs.
    """

    __slots__ = (
        "name", "attrs", "start_ms", "end_ms", "events", "children",
        "_clock", "span_id",
    )

    def __init__(
        self,
        name: str,
        clock: Callable[[], float],
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self._clock = clock
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.start_ms = float(clock())
        self.end_ms: float | None = None
        self.events: list[TraceEvent] = []
        self.children: list["Span"] = []
        #: Identifies this span in distributed trace context propagation:
        #: a request sent while this span is open carries ``span_id`` as
        #: its parent, and the server's span fragment stitches back under
        #: it (:mod:`repro.obs.distributed`).
        self.span_id = new_span_id()

    # -- recording -----------------------------------------------------

    def event(self, name: str, **attrs: Any) -> TraceEvent:
        """Record a point event at the current clock reading."""
        return self.event_at(self._clock(), name, **attrs)

    def event_at(self, at_ms: float, name: str, **attrs: Any) -> TraceEvent:
        """Record a point event that happened at ``at_ms`` — e.g. a hop
        of a route whose arrival the transport reported all at once."""
        event = TraceEvent(name, float(at_ms), attrs)
        self.events.append(event)
        return event

    def span(self, name: str, **attrs: Any) -> "Span":
        """Open a child span starting now."""
        child = Span(name, self._clock, attrs)
        self.children.append(child)
        return child

    def end(self, **attrs: Any) -> "Span":
        """Close the span (idempotent); extra attrs are merged in."""
        if attrs:
            self.attrs.update(attrs)
        if self.end_ms is None:
            self.end_ms = float(self._clock())
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()

    # -- inspection ----------------------------------------------------

    @property
    def duration_ms(self) -> float:
        """Span length; an un-ended span reads as zero-length."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def find(self, name: str) -> list["Span"]:
        """Every descendant span (self included) named ``name``."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def events_named(self, name: str) -> list[TraceEvent]:
        """This span's own events named ``name``."""
        return [event for event in self.events if event.name == name]

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over self and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "attrs": self.attrs,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
            "events": [event.to_dict() for event in self.events],
            "spans": [child.to_dict() for child in self.children],
        }


class QueryTrace:
    """The full record of one query's lifecycle.

    ``clock`` supplies timestamps in milliseconds; when omitted the trace
    counts steps (0, 1, 2, ...), which preserves ordering without
    pretending to measure time.  Use
    :meth:`RangeSelectionSystem.start_trace` /
    :meth:`AsyncQueryEngine.start_trace` to get a trace bound to the
    right clock for each path.
    """

    def __init__(
        self,
        name: str = "query",
        clock: Callable[[], float] | None = None,
        trace_id: str | None = None,
        **attrs: Any,
    ) -> None:
        if clock is None:
            steps = count()
            clock = lambda: float(next(steps))  # noqa: E731
        self.clock = clock
        #: Cluster-unique id carried on the wire when this trace's query
        #: fans out to remote peers (:mod:`repro.obs.distributed`); traces
        #: that never leave the process don't need one.
        self.trace_id = trace_id
        self.root = Span(name, clock, attrs)

    # -- recording (delegates to the root span) ------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a top-level child span."""
        return self.root.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> TraceEvent:
        """Record a point event on the root span."""
        return self.root.event(name, **attrs)

    def end(self, **attrs: Any) -> "QueryTrace":
        """Close the root span."""
        self.root.end(**attrs)
        return self

    # -- inspection / export -------------------------------------------

    @property
    def ended(self) -> bool:
        return self.root.end_ms is not None

    def find(self, name: str) -> list[Span]:
        """Every span named ``name`` anywhere in the trace."""
        return self.root.find(name)

    def to_dict(self) -> dict[str, Any]:
        doc = self.root.to_dict()
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)


class _NullTrace:
    """The do-nothing trace: every span is itself, every event a no-op.

    Instrumented code paths write ``trace = trace or NULL_TRACE`` once and
    then record unconditionally; with the null trace each call is one
    cheap method dispatch that stores nothing.  The *caller* still builds
    the call's arguments, so the null trace is falsy and a site whose
    arguments cost something — formatting a descriptor, a closure or a
    dict per overlay hop — checks ``if span:`` first.  The query engine
    does so for everything it would do per hop: untraced, a hop allocates
    nothing on the trace's behalf.
    """

    __slots__ = ()

    #: The null trace never propagates context: code asking an (optional)
    #: trace for its distributed identity gets ``None`` and sends nothing.
    trace_id = None
    span_id = None

    def span(self, name: str, **attrs: Any) -> "_NullTrace":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def end(self, **attrs: Any) -> "_NullTrace":
        return self

    def __enter__(self) -> "_NullTrace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_TRACE = _NullTrace()
