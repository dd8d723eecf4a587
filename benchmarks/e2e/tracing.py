"""Outside-in span tracing for the e2e benchmark.

The benchmark may not edit the program, so layers are timed from outside:
a :class:`Tracer` replaces the instances' and modules' public entry points
with wrappers that record one span per call (name, start, end, parent,
query index).  Spans stay in memory; :meth:`Tracer.layer_split` turns them
into per-layer self times when the run is over.

The engine is written in continuation-passing style, so a transport call
runs the *rest of the query* inside its own frame (``hop(a, b, fn)`` calls
``fn``).  The transport wrappers therefore re-wrap every continuation they
are handed as an ``engine`` span; without that the engine's own code would
be billed to whichever transport call happened to invoke it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from repro.sim.futures import SimFuture

__all__ = ["Tracer", "ROOT", "ENGINE"]

#: Span around the driver's call into the transport's ``query``.
ROOT = "query"
#: Span around every engine continuation a transport invokes.
ENGINE = "engine"

_MISSING = object()


class Tracer:
    """Records spans and owns the monkeypatches that produce them."""

    def __init__(self) -> None:
        #: Six fields per span — index, name, parent, query, start, end —
        #: appended flat as each span ends (children before parents): a
        #: list of tuples would hand the garbage collector one tracked
        #: object per span, and its passes would show up in the spans.
        #: Synchronous spans nest strictly, which is what makes self time
        #: well defined.
        self._sync: list = []
        #: Spans of coroutines (``wire.call``).  Several are in flight at
        #: once, so they overlap and stay out of the self-time arithmetic.
        self._async: list = []
        #: Counts taken at the same boundaries (e.g. bucket entries scanned).
        self.counts: dict[str, int] = defaultdict(int)
        #: Index of the query being driven; set by the driver loop.
        self.query = -1
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span recording --------------------------------------------------

    def wrap(self, name: str, fn: Callable, root: bool = False) -> Callable:
        """``fn`` with a span named ``name`` around every call made while
        a query is being driven; only a ``root`` wrapper opens a query."""
        record, stack = self._sync.extend, self._stack

        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            index = self._next
            self._next = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record((index, name, parent, self.query, start, end))

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A coroutine function with an (overlapping) span per call."""
        record, stack = self._async.extend, self._stack

        async def traced(*args, **kwargs):
            if not stack:
                return await fn(*args, **kwargs)
            index = self._next
            self._next = index + 1
            parent = stack[0]
            query = self.query
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                record((index, name, parent, query, start, perf_counter()))

        return traced

    def wrap_outermost(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap`, but recursive calls pass straight through
        (the wire codec recurses through its own module-level name)."""
        traced = self.wrap(name, fn)
        depth = [0]

        def guarded(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] -= 1

        return guarded

    # -- patching --------------------------------------------------------

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` and remember how to undo it."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Wrap the callable at ``owner.attr`` in a span named ``name``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        """Undo every patch (class- and module-level ones outlive a rig)."""
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    def patch_transport(self, transport: Any) -> None:
        """Span ``transport.hop`` / ``.request`` and hand the engine's
        continuations back to the engine (see the module docstring)."""
        hop, request = transport.hop, transport.request

        def traced_hop(hop_from, hop_to, fn):
            return hop(hop_from, hop_to, self.wrap(ENGINE, fn))

        settle = self.wrap(ENGINE, _forward)

        def traced_request(*args, **kwargs):
            # SimFuture has __slots__, so its add_done_callback cannot be
            # wrapped; the engine gets a stand-in future that settles
            # (and so runs the engine's callbacks) inside an engine span.
            inner = request(*args, **kwargs)
            outer: SimFuture = SimFuture()
            inner.add_done_callback(lambda settled: settle(settled, outer))
            outer.add_done_callback(
                lambda settled: settled.cancelled and inner.cancel()
            )
            return outer

        self.replace(transport, "hop", self.wrap("transport.hop", traced_hop))
        self.replace(
            transport, "request", self.wrap("transport.request", traced_request)
        )

    # -- aggregation -----------------------------------------------------

    @property
    def span_count(self) -> int:
        return (len(self._sync) + len(self._async)) // 6

    @property
    def spans(self) -> list[tuple[int, str, int, int, float, float]]:
        """Every synchronous span as ``(index, name, parent, query, start, end)``."""
        return list(zip(*[iter(self._sync)] * 6))

    @property
    def async_spans(self) -> list[tuple[int, str, int, int, float, float]]:
        """Every coroutine span, same shape."""
        return list(zip(*[iter(self._async)] * 6))

    def layer_split(self) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds and number of calls, plus the
        wrappers' own cost under ``"trace.overhead"``.

        A span's self time is its duration minus its direct children's,
        minus what :func:`wrapper_cost` says the wrappers themselves
        added to it.  A counter bump takes half a microsecond and its
        wrapper about as much again, so uncorrected self times would
        bill the tracer to whichever layer bumps the most counters.  The
        correction is a lower bound (a no-op's wrapper, undisturbed), so
        self times stay inflated by the rest of ``trace.overhead_pct``:
        compare traced runs with traced runs.  Summed over every name,
        overhead included, the split equals the root spans' duration.
        """
        spans = self.spans
        inside, outside = wrapper_cost()
        child_s: dict[int, float] = defaultdict(float)
        child_n: dict[int, int] = defaultdict(int)
        for _index, _name, parent, _query, start, end in spans:
            child_s[parent] += end - start
            child_n[parent] += 1
        split: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0}
        )
        charged = 0.0
        for index, name, _parent, _query, start, end in spans:
            cost = inside + outside * child_n.get(index, 0)
            charged += cost
            layer = split[name]
            layer["self_s"] += (end - start) - child_s.get(index, 0.0) - cost
            layer["calls"] += 1
        split["trace.overhead"] = {"self_s": charged, "calls": len(spans)}
        return dict(split)

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``."""
        return [
            end - start
            for spans in (self.spans, self.async_spans)
            for _i, span_name, _p, _q, start, end in spans
            if span_name == name
        ]

    def sample(self, queries: int) -> list[list]:
        """The raw spans of the first ``queries`` queries, for the
        ``trace`` section of the output document, as
        ``[id, name, parent id, query, start us, end us]`` rows."""
        spans = self.spans + self.async_spans
        origin = min((s[4] for s in spans), default=0.0)
        return sorted(
            [index, name, parent, query,
             round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)]
            for index, name, parent, query, start, end in spans
            if 0 <= query < queries
        )


def wrapper_cost(calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
    """``(inside, outside)``: the seconds one wrapper adds to its own
    span's interval, and to its parent's self time.  Measured on a no-op,
    least-disturbed round of ``rounds``."""

    def noop() -> None:
        return None

    def loop(fn: Callable) -> float:
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    inside = outside = float("inf")
    for _ in range(rounds):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        total = tracer.wrap(ROOT, loop, root=True)(traced)
        bare = loop(noop)
        within = sum(tracer.durations("noop"))
        inside = min(inside, within / calls)
        outside = min(outside, (total - within - bare) / calls)
    return inside, max(outside, 0.0)


def _forward(settled: SimFuture, outer: SimFuture) -> None:
    """Settle ``outer`` the way ``settled`` did."""
    if outer.done:
        return  # the engine cancelled it; the late reply is dropped
    if settled.failed:
        outer.reject(settled.exception())
    else:
        outer.resolve(settled.result())
