"""Futures for the discrete-event simulator.

A :class:`SimFuture` is the value of an operation that completes at a later
*virtual* time: an in-flight request, a timer, a whole query.  It is
deliberately tiny — settle once, run callbacks immediately on settle — and
synchronous under the hood: the simulator's event loop is single-threaded,
so no locking is needed, and "concurrency" means interleaved virtual-time
events, not threads.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Sequence, TypeVar

from repro.errors import FutureCancelledError

T = TypeVar("T")

__all__ = ["SimFuture", "gather"]


class SimFuture(Generic[T]):
    """A single-assignment slot filled at some later virtual time; its
    state is three attributes :meth:`_settle` writes: ``done``, ``failed``
    (cancelling counts — a cancelled future carries a
    :class:`~repro.errors.FutureCancelledError`, so fan-out code needs no
    third case) and ``cancelled``."""

    __slots__ = ("done", "failed", "cancelled", "_value", "_error", "_callbacks")

    def __init__(self) -> None:
        self.done = False
        self.failed = False
        self.cancelled = False
        self._value: T | None = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture[T]"], None]] = []

    # -- inspection ----------------------------------------------------

    def result(self) -> T:
        """The resolved value; raises the error if rejected/cancelled, or
        :class:`RuntimeError` if still pending."""
        if not self.done:
            raise RuntimeError("future is still pending")
        if self.failed:
            raise self._error  # type: ignore[misc]
        return self._value  # type: ignore[return-value]

    def exception(self) -> BaseException | None:
        """The rejection/cancellation error, or None when pending/resolved."""
        return self._error

    # -- settling ------------------------------------------------------

    def resolve(self, value: T) -> None:
        """Settle successfully with ``value``."""
        self._settle(value, None)

    def reject(self, error: BaseException) -> None:
        """Settle with an error."""
        self._settle(None, error)

    def cancel(self) -> bool:
        """Abandon a pending future; returns whether anything changed.

        Cancelling settles the future with a
        :class:`~repro.errors.FutureCancelledError` and runs its callbacks
        — owners of associated resources (timeout timers, queued retries)
        hook those callbacks to release them.  Cancelling an
        already-settled future (the reply won the race) is a no-op, as is
        a second cancel.
        """
        if self.done:
            return False
        self.cancelled = True
        self._settle(None, FutureCancelledError("future cancelled"))
        return True

    def _settle(self, value: Any, error: BaseException | None) -> None:
        if self.done:
            if self.cancelled:
                # The operation was abandoned; a late resolution (the
                # losing hedge's reply finally landing) is dropped silently.
                return
            raise RuntimeError(f"future already {'rejected' if self.failed else 'resolved'}")
        self.done = True
        self.failed = error is not None
        self._value = value
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- composition ---------------------------------------------------

    def add_done_callback(self, callback: Callable[["SimFuture[T]"], None]) -> None:
        """Run ``callback(self)`` on settle (immediately if already settled)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def then(self, on_value: Callable[[T], Any]) -> "SimFuture[Any]":
        """Chain: a future of ``on_value(result)``, propagating errors.

        If ``on_value`` returns a :class:`SimFuture` the chain flattens
        into it (so multi-round-trip protocols compose left to right).
        """
        out: SimFuture[Any] = SimFuture()

        def on_done(settled: "SimFuture[T]") -> None:
            if settled.failed:
                out.reject(settled.exception())  # type: ignore[arg-type]
                return
            try:
                mapped = on_value(settled.result())
            except Exception as exc:  # noqa: BLE001 — forwarded, not dropped
                out.reject(exc)
                return
            if isinstance(mapped, SimFuture):
                mapped.add_done_callback(
                    lambda inner: out.reject(inner.exception())  # type: ignore[arg-type]
                    if inner.failed
                    else out.resolve(inner.result())
                )
            else:
                out.resolve(mapped)

        self.add_done_callback(on_done)
        return out


def gather(futures: Sequence[SimFuture[Any]]) -> SimFuture[list[Any]]:
    """A future of every input's outcome, resolving when *all* settle.

    Rejections do not fail the gather: each slot of the resolved list holds
    either the value or the exception instance, in input order — the
    query engine needs exactly this to degrade to the replies that survived
    while still seeing which chains timed out.
    """
    out: SimFuture[list[Any]] = SimFuture()
    if not futures:
        out.resolve([])
        return out
    results: list[Any] = [None] * len(futures)
    remaining = len(futures)

    def make_callback(slot: int) -> Callable[[SimFuture[Any]], None]:
        def on_done(settled: SimFuture[Any]) -> None:
            nonlocal remaining
            results[slot] = settled.exception() if settled.failed else settled.result()
            remaining -= 1
            if remaining == 0:
                out.resolve(results)

        return on_done

    for slot, future in enumerate(futures):
        future.add_done_callback(make_callback(slot))
    return out
