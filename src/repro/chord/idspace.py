"""Circular identifier-space arithmetic.

Chord's correctness hinges on interval tests in a space that wraps around:
"is id ``x`` in ``(a, b]`` walking clockwise from ``a``?"  Getting these
right (especially when ``a == b``, which denotes the full circle) is where
Chord implementations classically go wrong, so the logic lives here in one
tested place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IdSpace"]


@dataclass(frozen=True)
class IdSpace:
    """The ``m``-bit circular identifier space ``[0, 2^m)``."""

    m: int = 32
    #: Number of identifiers, ``2^m``.
    size: int = field(init=False, repr=False, compare=False)
    #: ``size - 1``: ``value & mask`` reduces any integer into the space.
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= 64:
            raise ValueError("id space bits must be within [1, 64]")
        # Derived once; the dataclass is frozen, hence object.__setattr__.
        object.__setattr__(self, "size", 1 << self.m)
        object.__setattr__(self, "mask", (1 << self.m) - 1)

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into the space."""
        return value & self.mask

    def distance(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b``."""
        return self.wrap(b - a)

    def in_open(self, x: int, a: int, b: int) -> bool:
        """``x ∈ (a, b)`` clockwise; ``a == b`` denotes the full circle."""
        x, a, b = self.wrap(x), self.wrap(a), self.wrap(b)
        if a == b:
            return x != a
        if a < b:
            return a < x < b
        return x > a or x < b

    def in_half_open(self, x: int, a: int, b: int) -> bool:
        """``x ∈ (a, b]`` clockwise; this is Chord's successor interval."""
        x, a, b = self.wrap(x), self.wrap(a), self.wrap(b)
        if a == b:
            return True
        if a < b:
            return a < x <= b
        return x > a or x <= b

    def finger_start(self, node_id: int, index: int) -> int:
        """Start of finger ``index`` (0-based): ``(n + 2^index) mod 2^m``."""
        if not 0 <= index < self.m:
            raise ValueError(f"finger index {index} outside [0, {self.m})")
        return self.wrap(node_id + (1 << index))
