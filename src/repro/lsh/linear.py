"""Linear permutations ``pi(x) = (a*x + b) mod p`` (Broder et al. 1998).

The paper explores these because the full min-wise permutations "can be
computationally expensive"; a linear permutation costs one multiply-add-mod
per element.  With ``p`` prime and ``a != 0`` the map is a bijection of
``Z_p``.  The default modulus is the Mersenne prime ``2^31 - 1``, keeping
identifiers inside the 32-bit space the system uses.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashFamilyError

from repro.lsh.base import Permutation, PermutationFamily, PermutationStack

__all__ = [
    "LinearPermutation",
    "LinearFamily",
    "MERSENNE_31",
    "is_probable_prime",
    "min_of_progression",
    "next_prime_above",
]

MERSENNE_31 = (1 << 31) - 1


def next_prime_above(n: int) -> int:
    """The smallest prime strictly greater than ``n``.

    Min-wise theory (Broder et al.) draws linear permutations over ``Z_p``
    with ``p`` *just above* the universe size — for the paper's [0, 1000]
    domain that is 1009, not a 31-bit prime.  The small modulus matters
    behaviourally: hash values live in a small space, so dissimilar ranges
    collide liberally and buckets fill with loosely matching partitions —
    exactly the "not too strict" linear behaviour Section 5.2 describes.
    """
    candidate = max(2, n + 1)
    while not is_probable_prime(candidate):
        candidate += 1
    return candidate


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs (enough witnesses)."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(p: int) -> None:
    """Raise unless ``p`` is a prime of at most 2^32, so that with ``a, b,
    x < p`` the array path's ``a*x + b`` stays below 2^64."""
    if not is_probable_prime(p):
        raise HashFamilyError(f"modulus {p} is not prime")
    if p > 1 << 32:
        raise HashFamilyError(f"modulus {p} exceeds 2^32: a*x + b would wrap in uint64")


class LinearPermutation(Permutation):
    """``pi(x) = (a*x + b) mod p`` with ``p`` prime and ``1 <= a < p``."""

    def __init__(self, a: int, b: int, p: int = MERSENNE_31) -> None:
        check_modulus(p)
        if not 1 <= a < p:
            raise HashFamilyError("coefficient a must satisfy 1 <= a < p")
        if not 0 <= b < p:
            raise HashFamilyError("offset b must satisfy 0 <= b < p")
        self.a = a
        self.b = b
        self.p = p
        self.space_size = p

    def apply(self, x: int) -> int:
        self.validate_input(x)
        return (self.a * x + self.b) % self.p

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=np.uint64)
        return (np.uint64(self.a) * arr + np.uint64(self.b)) % np.uint64(self.p)

    @classmethod
    def stack(cls, perms: list["LinearPermutation"]) -> "LinearStack":
        return LinearStack(perms)

    def inverse(self, y: int) -> int:
        """The preimage of ``y`` (useful in tests of bijectivity)."""
        a_inv = pow(self.a, -1, self.p)
        return (y - self.b) * a_inv % self.p

    def __repr__(self) -> str:
        return f"LinearPermutation(a={self.a}, b={self.b}, p={self.p})"


class LinearFamily(PermutationFamily):
    """Uniform distribution over ``(a, b)`` with ``a != 0``."""

    name = "linear"

    def __init__(self, p: int = MERSENNE_31) -> None:
        check_modulus(p)
        self.p = p

    def sample(self, rng: np.random.Generator) -> LinearPermutation:
        a = int(rng.integers(1, self.p))
        b = int(rng.integers(0, self.p))
        return LinearPermutation(a, b, self.p)


def min_of_progression(n: int, m: int, a: int, b: int) -> int:
    """``min((a*x + b) % m for x in range(n))`` for ``0 <= a, b < m`` and
    ``n >= 1``, in O(log m) rounds: a new low follows only a wrap past
    ``m``, and the values right after the wraps are a progression mod
    ``a <= m/2`` (DESIGN §17.1)."""
    best = b
    while a:
        if 2 * a > m:
            b, a = (b + a * (n - 1)) % m, m - a
        best = min(best, b)
        wraps = (a * (n - 1) + b) // m
        if not wraps:
            return best
        n, m, a, b = wraps, a, -m % a, (b - m) % a
    return min(best, b)


class LinearStack(PermutationStack):
    """Interval minima of linear permutations: over ``[s, e]`` each
    function's images are a progression mod ``p`` from ``(a*s + b) mod
    p``, whose least term :func:`min_of_progression` finds."""

    def __init__(self, perms: list[LinearPermutation]) -> None:
        super().__init__(perms)
        self._coefficients = [(perm.a, perm.b) for perm in perms]

    def _min_over(self, start: int, end: int) -> np.ndarray:
        p, n = self.space_size, end - start + 1
        return np.array(
            [min_of_progression(n, p, a, (a * start + b) % p) for a, b in self._coefficients],
            dtype=np.uint64,
        )
