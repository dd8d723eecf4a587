"""Latency models for the simulated transport."""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import sha256
from struct import Struct
from typing import Sequence

__all__ = ["LatencyModel", "ConstantLatency", "SeededLatency"]

#: The first 8 bytes of a digest, read as a big-endian unsigned integer.
_DIGEST_HEAD = Struct(">Q").unpack_from


class LatencyModel(ABC):
    """Samples a one-way delivery delay (milliseconds) per message."""

    @abstractmethod
    def sample_ms(self, sender: int, recipient: int) -> float:
        """Delay for one message from ``sender`` to ``recipient``."""

    def path_ms(self, path: Sequence[int]) -> list[float]:
        """The delay of each edge of ``path`` in order: ``sample_ms`` of
        every consecutive pair, in one call per route."""
        sample = self.sample_ms
        return [sample(sender, recipient) for sender, recipient in zip(path, path[1:])]


class ConstantLatency(LatencyModel):
    """Every message takes the same time; the default (and the value used
    when only hop *counts* matter) is zero."""

    def __init__(self, ms: float = 0.0) -> None:
        if ms < 0:
            raise ValueError("latency cannot be negative")
        self.ms = ms

    def sample_ms(self, sender: int, recipient: int) -> float:
        return self.ms

    def path_ms(self, path: Sequence[int]) -> list[float]:
        return [self.ms] * (len(path) - 1)


class SeededLatency(LatencyModel):
    """Pairwise-deterministic wide-area delay.

    The delay of the directed link ``sender -> recipient`` is a pure
    function of ``(seed, sender, recipient)``: the pair is hashed with
    SHA-256 and the digest picks a point in ``[low_ms, high_ms]``.  There
    is no generator state, so two runs with the same seed see identical
    link delays regardless of how many samples were drawn in between —
    which keeps event orderings in the discrete-event simulator
    reproducible.  Links are asymmetric (``a -> b`` and ``b -> a`` hash
    differently), as real paths are.

    Digests are memoised per link; the memo is emptied whenever it reaches
    :attr:`CACHE_LIMIT` links, which bounds a long run's memory and, the
    delay being a pure function of the link, changes no sample.
    """

    #: Links memoised before the memo starts over.
    CACHE_LIMIT = 1 << 16

    def __init__(self, low_ms: float = 10.0, high_ms: float = 100.0, seed: int = 0) -> None:
        if not 0 <= low_ms <= high_ms:
            raise ValueError("need 0 <= low_ms <= high_ms")
        self.low_ms = low_ms
        self.high_ms = high_ms
        self.seed = int(seed)
        self._cache: dict[tuple[int, int], float] = {}

    def sample_ms(self, sender: int, recipient: int) -> float:
        pair = (sender, recipient)
        cached = self._cache.get(pair)
        if cached is not None:
            return cached
        return self._digest_ms(pair)

    def path_ms(self, path: Sequence[int]) -> list[float]:
        cache = self._cache
        delays = []
        for pair in zip(path, path[1:]):
            delay = cache.get(pair)
            delays.append(delay if delay is not None else self._digest_ms(pair))
        return delays

    def _digest_ms(self, pair: tuple[int, int]) -> float:
        """The link's delay from its digest, memoised."""
        # The bytes of f"{seed}:{sender}->{recipient}", built without
        # the str round trip.
        (head,) = _DIGEST_HEAD(sha256(b"%d:%d->%d" % (self.seed, *pair)).digest())
        fraction = head / 2**64
        delay = self.low_ms + fraction * (self.high_ms - self.low_ms)
        if len(self._cache) >= self.CACHE_LIMIT:
            self._cache.clear()
        self._cache[pair] = delay
        return delay
