"""Approximate min-wise permutations: the first shuffle iteration only.

The paper (Section 5.1): "we also tried another family of approximate
min-wise independent permutations which are just the first iteration of the
min-wise independent permutations.  This approximate family is representable
with a single 32-bit integer key and is computationally less expensive."
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashFamilyError
from repro.lsh.base import PermutationFamily
from repro.lsh.bitshuffle import BitPositionPermutation, check_width, shuffle_once
from repro.util.bitops import popcount, random_key_with_ones

__all__ = ["ApproxMinWisePermutation", "ApproxMinWiseFamily"]


class ApproxMinWisePermutation(BitPositionPermutation):
    """One shuffle iteration of the full network: a single ``width``-bit key
    with ``width/2`` ones, bits moved to upper/lower halves in order."""

    def __init__(self, key: int, width: int = 32) -> None:
        check_width(width)
        if not 0 <= key < (1 << width):
            raise HashFamilyError(f"key does not fit in {width} bits")
        if popcount(key) != width // 2:
            raise HashFamilyError(f"key must have exactly {width // 2} ones")
        self.key = key
        super().__init__([key], width)

    def apply(self, x: int) -> int:
        """Single-iteration shuffle of ``x`` (the honest per-element cost)."""
        self.validate_input(x)
        return shuffle_once(x, self.key, self.width, self.width)

    def __repr__(self) -> str:
        return (
            f"ApproxMinWisePermutation(key=0x{self.key:0{self.width // 4}x}, "
            f"width={self.width})"
        )


class ApproxMinWiseFamily(PermutationFamily):
    """Family of single-iteration shuffle permutations."""

    name = "approx-min-wise"

    def __init__(self, width: int = 32) -> None:
        check_width(width)
        self.width = width

    def sample(self, rng: np.random.Generator) -> ApproxMinWisePermutation:
        key = random_key_with_ones(self.width, self.width // 2, rng)
        return ApproxMinWisePermutation(key, width=self.width)
