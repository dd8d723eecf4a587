"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock (milliseconds, starting at 0) and
a priority queue of scheduled callbacks.  Running the simulator pops events
in time order and advances the clock to each event's timestamp — no wall
time passes, so a 90-second timeout scenario executes in microseconds and a
million-message run is bounded by Python speed, not by sleeping.

Determinism: ties in virtual time break by scheduling order (a
monotonically increasing sequence number), so the same program produces the
same event order on every run.  Pair this with
:class:`~repro.net.latency.SeededLatency` and an entire fault-injected
experiment replays bit-for-bit from its seed.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.futures import SimFuture

__all__ = ["Simulator", "Timer"]


class Timer:
    """Handle to one scheduled callback; cancellation is O(1) (the event
    stays queued but is skipped when popped).

    The timer holds its :class:`Simulator` until it fires or is
    cancelled, whichever comes first, so that the first effective cancel
    of a pending timer can keep the simulator's count of live events
    exact without scanning the heap; the simulator drops the reference
    when it fires the timer.
    """

    __slots__ = ("time", "_fn", "_sim", "cancelled")

    def __init__(self, time: float, fn: Callable[[], None], sim: "Simulator") -> None:
        self.time = time
        self._fn = fn
        self._sim: Simulator | None = sim
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent).

        Cancelling after the timer already fired is a no-op — common when a
        reply callback races its own timeout timer.
        """
        sim = self._sim
        if sim is None:  # fired, or cancelled before
            return
        self._sim = None
        self.cancelled = True
        self._fn = _noop
        sim._live -= 1


def _noop() -> None:
    return None


class Simulator:
    """Virtual clock plus the event queue driving it."""

    def __init__(self) -> None:
        #: Current virtual time in milliseconds; only the kernel moves it.
        self.now = 0.0
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = count()
        self._live = 0

    @property
    def pending(self) -> int:
        """Live scheduled events: not yet fired and not cancelled.

        Cancelled timers stay in the heap until popped (cancellation is
        O(1)), so ``len(self._heap)`` over-reports pending work — this
        count is maintained exactly instead, and is what the health
        sampler exports as the ``sim.pending_events`` gauge.
        """
        return self._live

    @property
    def queued(self) -> int:
        """Raw heap occupancy, cancelled-but-unpopped entries included."""
        return len(self._heap)

    # -- scheduling ----------------------------------------------------

    def call_at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` to run at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} ms; clock is already at {self.now} ms"
            )
        timer = Timer(time, fn, self)
        heapq.heappush(self._heap, (time, next(self._seq), timer))
        self._live += 1
        return timer

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Schedule ``fn`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"delay cannot be negative, got {delay}")
        return self.call_at(self.now + delay, fn)

    # -- execution -----------------------------------------------------

    def step(self) -> bool:
        """Fire the next event (advancing the clock); False when empty."""
        heap = self._heap
        while heap:
            time, _seq, timer = heapq.heappop(heap)
            if timer.cancelled:
                continue
            self.now = time
            self._live -= 1
            timer._sim = None
            timer._fn()
            return True
        return False

    def run(self, until: float | None = None) -> float:
        """Fire events until the queue drains (or virtual time ``until``).

        Returns the clock value when execution stopped.  With ``until``,
        events beyond the horizon stay queued and the clock is advanced to
        exactly ``until``.
        """
        if until is not None and until < self.now:
            raise SimulationError("cannot run backwards in time")
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _seq, timer = heap[0]
            if timer.cancelled:
                pop(heap)
                continue
            if until is not None and time > until:
                break
            pop(heap)
            self.now = time
            self._live -= 1
            timer._sim = None
            timer._fn()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def run_until_complete(self, future: SimFuture[Any]) -> Any:
        """Drive the event loop until ``future`` settles; return its result.

        Raises :class:`~repro.errors.SimulationError` if the queue drains
        while the future is still pending (a deadlock: whatever would have
        settled it was lost and no timeout was armed), and re-raises the
        future's own error if it was rejected.
        """
        while not future.done:
            if not self.step():
                raise SimulationError(
                    "event queue drained but the awaited future is still "
                    "pending (lost message with no timeout armed?)"
                )
        return future.result()
