"""Grouped LSH identifiers: ``l`` groups of ``k`` min-hash functions.

Section 4 of the paper: a group ``g = {h1, ..., hk}`` agrees on two sets
with probability ``p^k``; with ``l`` groups the probability that *some*
group agrees is ``1 - (1 - p^k)^l``.  The querying-peer pseudocode combines
a group's ``k`` hash values into one identifier with XOR
(``identifier[l] ^= h[i](Q)``); we reproduce that combination exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashFamilyError
from repro.lsh.base import MinHash, PermutationFamily
from repro.lsh.theory import group_match_probability
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng

__all__ = ["DomainMinHashIndex", "LSHIdentifierScheme", "DEFAULT_K", "DEFAULT_L"]

#: The paper's parameter choice: "we chose the values for parameters k and l
#: to be 20 and 5 respectively, because these values make the function
#: 1 - (1 - p^k)^l reasonably estimate a step function with a step at 0.9."
DEFAULT_K = 20
DEFAULT_L = 5


class LSHIdentifierScheme:
    """Maps a selection range to ``l`` identifiers in the 32-bit space.

    This object is the system's hashing front end: the same instance must be
    shared by every peer (all peers agree on the global hash functions, just
    as they agree on the global schema).  Its ``l x k`` permutations are
    stacked once (:meth:`Permutation.stack`), and a range's minima under
    all of them come from one closed-form call, whatever its width.
    """

    def __init__(self, groups: list[list[MinHash]], id_bits: int = 32) -> None:
        if not groups:
            raise HashFamilyError("need at least one hash group")
        ks = {len(g) for g in groups}
        if len(ks) != 1:
            raise HashFamilyError(f"all groups must share one k, got sizes {ks}")
        if not 1 <= id_bits <= 64:
            raise HashFamilyError("id_bits must be within [1, 64]")
        self.groups = groups
        self.id_bits = id_bits
        self.id_mask = (1 << id_bits) - 1
        perms = [fn.permutation for fn in self.all_functions()]
        self._stack = perms[0].stack(perms)
        #: Size of the permuted space: every hashed value lies below it.
        self.space_size = self._stack.space_size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_family(
        cls,
        family: PermutationFamily,
        l: int = DEFAULT_L,
        k: int = DEFAULT_K,
        seed: int = 0,
        id_bits: int = 32,
    ) -> "LSHIdentifierScheme":
        """Sample ``l`` groups of ``k`` functions from ``family``.

        Sampling is deterministic in ``seed`` (stream name
        ``lsh/<family>``), so two peers constructing the scheme with the
        same arguments agree on every identifier.
        """
        if l <= 0 or k <= 0:
            raise HashFamilyError("l and k must be positive")
        rng = derive_rng(seed, f"lsh/{family.name}")
        groups = [[MinHash(family.sample(rng)) for _ in range(k)] for _ in range(l)]
        return cls(groups, id_bits=id_bits)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    @property
    def l(self) -> int:
        """Number of groups (identifiers produced per range)."""
        return len(self.groups)

    @property
    def k(self) -> int:
        """Hash functions per group."""
        return len(self.groups[0])

    def minhashes(self, r: IntRange) -> np.ndarray:
        """All ``l*k`` min-hashes of ``r``, group-major, as ``uint64``:
        one stacked interval minimum."""
        return self._stack.min_over(r.start, r.end)

    def identifiers(self, r: IntRange) -> list[int]:
        """The ``l`` identifiers of range ``r``."""
        return combine_hashes_xor(self.minhashes(r), self.l, self.k, self.id_mask).tolist()

    def identifiers_slow(self, r: IntRange) -> list[int]:
        """The same identifiers, one value through one permutation at a
        time: the cost Figure 5 measures, and the tests' oracle."""
        identifiers = []
        for group in self.groups:
            ident = 0
            for fn in group:
                ident ^= fn.hash_range_slow(r)
            identifiers.append(ident & self.id_mask)
        return identifiers

    def all_functions(self) -> list[MinHash]:
        """Every min-hash function, group-major (group 0 first)."""
        return [fn for g in self.groups for fn in g]

    # ------------------------------------------------------------------
    # Theory
    # ------------------------------------------------------------------

    def match_probability(self, similarity: float) -> float:
        """``1 - (1 - s^k)^l``: chance at least one group identifier agrees
        for two ranges of Jaccard similarity ``s`` (idealized family)."""
        return group_match_probability(similarity, self.k, self.l)

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"LSH scheme: l={self.l} groups x k={self.k} fns, {self.id_bits}-bit ids"


def combine_hashes_xor(hash_values: np.ndarray, l: int, k: int, mask: int) -> np.ndarray:
    """XOR-reduce a group-major vector of ``l*k`` hash values to ``l`` ids."""
    arr = np.asarray(hash_values, dtype=np.uint64).reshape(l, k)
    combined = np.bitwise_xor.reduce(arr, axis=1)
    return combined & np.uint64(mask)


class DomainMinHashIndex:
    """A scheme's identifiers for ranges inside one domain only, raising
    :class:`~repro.errors.DomainError` outside it.  The benchmark's probes
    still name it."""

    def __init__(self, scheme: LSHIdentifierScheme, domain: Domain) -> None:
        self.scheme = scheme
        self.domain = domain

    def identifiers(self, r: IntRange) -> list[int]:
        """The ``l`` identifiers of ``r``, which must lie in the domain."""
        self.domain.validate_range(r)
        return self.scheme.identifiers(r)
