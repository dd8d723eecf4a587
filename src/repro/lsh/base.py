"""Permutation and min-hash abstractions."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import HashFamilyError
from repro.ranges.interval import IntRange

__all__ = ["Permutation", "PermutationFamily", "PermutationStack", "MinHash"]


class Permutation(ABC):
    """A bijection of a finite integer code space onto itself.

    Min-wise hashing (Section 3.3) is ``h(Q) = min(pi(Q))`` for a random
    permutation ``pi``; concrete subclasses supply ``pi``.
    """

    #: Size of the permuted space; ``apply`` maps [0, space_size) to itself.
    space_size: int

    @abstractmethod
    def apply(self, x: int) -> int:
        """Image of a single value (reference, element-at-a-time path)."""

    @classmethod
    @abstractmethod
    def stack(cls, perms: list["Permutation"]) -> "PermutationStack":
        """``perms``, all of this class and one space, evaluated together."""

    def validate_input(self, x: int) -> None:
        """Raise ``ValueError`` when ``x`` is outside the permuted space."""
        if not 0 <= x < self.space_size:
            raise ValueError(
                f"value {x} outside permutation space [0, {self.space_size})"
            )


class PermutationStack(ABC):
    """Permutations of one class and space, hashed together.  A range is
    two integers, and each class finds every stacked ``pi``'s minimum over
    ``[start, end]`` from them in closed form (DESIGN §17.1)."""

    def __init__(self, perms: list[Permutation]) -> None:
        if len({(type(p), p.space_size) for p in perms}) != 1:
            raise HashFamilyError("stacked permutations must share a class and a space")
        self.space_size = perms[0].space_size

    def min_over(self, start: int, end: int) -> np.ndarray:
        """``min(pi([start, end]))`` of every stacked ``pi``, as ``uint64``;
        raises ``ValueError``, as :meth:`Permutation.apply` does, outside
        the space."""
        if not 0 <= start <= end < self.space_size:
            raise ValueError(
                f"range [{start}, {end}] outside permutation space [0, {self.space_size})"
            )
        return self._min_over(start, end)

    @abstractmethod
    def _min_over(self, start: int, end: int) -> np.ndarray:
        """:meth:`min_over` of a range inside the space."""


class PermutationFamily(ABC):
    """A distribution over permutations that min-hash functions draw from."""

    #: Canonical family name, used by configs and reports.
    name: str = "abstract"

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Permutation:
        """Draw one permutation from the family."""


class MinHash:
    """``h(Q) = min(pi(Q))`` for one sampled permutation ``pi``.

    The property this buys (Section 3.3): for a truly min-wise independent
    family, ``Pr[h(Q) = h(R)]`` equals the Jaccard similarity of ``Q`` and
    ``R``.  Schemes hash ranges through :meth:`PermutationStack.min_over`;
    this class keeps the per-element definition.
    """

    def __init__(self, permutation: Permutation) -> None:
        self.permutation = permutation

    def hash_range_slow(self, r: IntRange) -> int:
        """Element-at-a-time min-hash, used by the Figure 5 cost experiment.

        This path preserves the *relative* computational cost of the three
        families (the quantity Figure 5 measures) because it performs the
        per-element permutation work the paper describes, with no
        vectorization hiding it.
        """
        best: int | None = None
        for value in r.values():
            image = self.permutation.apply(value)
            if best is None or image < best:
                best = image
        assert best is not None  # IntRange is never empty
        return best
