"""Exact min-wise independent permutations over a bounded domain.

The paper's Figure 3 network only permutes *bit positions*, which is far
from uniformly random over all permutations (for example, images of values
with few set bits are biased small).  For a bounded domain we can afford
the real thing: an explicit uniformly random permutation of the domain,
stored as a table.  This family is the *ideal* reference the theory in
Section 3.3 assumes — ``Pr[h(Q) = h(R)]`` equals Jaccard exactly — and the
ablation experiment compares the paper's construction against it.

Images are mapped through a sorted set of random 32-bit codes, so
identifiers still spread over the full 32-bit ring while preserving the
permutation's order (and therefore its min).
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashFamilyError
from repro.lsh.base import Permutation, PermutationFamily, PermutationStack

__all__ = ["TablePermutation", "TablePermutationFamily"]


class TablePermutation(Permutation):
    """An explicit random permutation of ``[0, domain_size)``.

    ``apply(x)`` returns a 32-bit code whose order over the domain is the
    permuted order, so min-hashing behaves exactly as with the raw
    permutation while identifiers cover the 32-bit space.
    """

    def __init__(self, perm: np.ndarray, codes: np.ndarray) -> None:
        if perm.ndim != 1 or codes.ndim != 1 or perm.size != codes.size:
            raise HashFamilyError("permutation and code tables must align")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise HashFamilyError("table is not a permutation of the domain")
        self.space_size = int(perm.size)
        self._mapped = codes[perm].astype(np.uint64)

    def apply(self, x: int) -> int:
        self.validate_input(x)
        return int(self._mapped[x])

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=np.uint64)
        return self._mapped[arr.astype(np.intp)]

    @classmethod
    def stack(cls, perms: list["TablePermutation"]) -> "TableStack":
        return TableStack(perms)


class TableStack(PermutationStack):
    """Interval minima of table permutations: a slice minimum over every
    function's images, stacked as ``(space_size, functions)`` so a range
    is one contiguous block of rows.  The space is the domain."""

    def __init__(self, perms: list[TablePermutation]) -> None:
        super().__init__(perms)
        self._images = np.stack([p._mapped for p in perms], axis=1)

    def _min_over(self, start: int, end: int) -> np.ndarray:
        return self._images[start : end + 1].min(axis=0)


class TablePermutationFamily(PermutationFamily):
    """Uniform distribution over all permutations of a bounded domain."""

    name = "table"

    def __init__(self, domain_size: int = 1001) -> None:
        if domain_size < 2:
            raise HashFamilyError("domain must have at least two values")
        if domain_size > 1 << 24:
            raise HashFamilyError(
                "table permutations over >2^24 values are impractical; "
                "use the bit-shuffle families instead"
            )
        self.domain_size = domain_size

    def sample(self, rng: np.random.Generator) -> TablePermutation:
        perm = rng.permutation(self.domain_size)
        # Distinct random 32-bit codes, sorted so rank order is preserved.
        codes = np.sort(
            rng.choice(np.uint64(1) << np.uint64(32), size=self.domain_size,
                       replace=False).astype(np.uint64)
        )
        return TablePermutation(perm.astype(np.int64), codes)
