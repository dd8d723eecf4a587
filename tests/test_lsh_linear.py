"""Tests for linear permutations pi(x) = (a*x + b) mod p."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashFamilyError
from repro.lsh.families import family_for_domain
from repro.lsh.linear import (
    MERSENNE_31,
    LinearFamily,
    LinearPermutation,
    is_probable_prime,
    min_of_progression,
    next_prime_above,
)
from repro.ranges.domain import Domain
from repro.util.rng import derive_rng


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 1031, MERSENNE_31):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 1001, 2**31 - 2, 561, 341):  # incl. pseudoprimes
            assert not is_probable_prime(n)


class TestValidation:
    def test_a_zero_rejected(self):
        with pytest.raises(HashFamilyError):
            LinearPermutation(0, 5)

    def test_composite_modulus_rejected(self):
        with pytest.raises(HashFamilyError):
            LinearPermutation(1, 0, p=1000)

    def test_b_out_of_range_rejected(self):
        with pytest.raises(HashFamilyError):
            LinearPermutation(1, MERSENNE_31, p=MERSENNE_31)

    def test_modulus_above_two_to_the_32_rejected(self):
        """``a*x`` would wrap past 2^64 in the array paths: at
        ``p = next_prime_above(10**12)``, ``a = p - 2``, ``b = 5`` they
        hashed 1 to 205128748408 where ``apply`` gives 85."""
        p = next_prime_above(10**12)
        with pytest.raises(HashFamilyError):
            LinearPermutation(p - 2, 5, p=p)
        with pytest.raises(HashFamilyError):
            LinearFamily(p=p)
        with pytest.raises(HashFamilyError):
            family_for_domain("linear", Domain("v", 0, 10**12))

    def test_largest_allowed_modulus_is_exact(self):
        p = 4294967291  # the largest prime below 2^32
        assert next_prime_above(p) > 1 << 32
        perm = LinearPermutation(p - 1, p - 1, p=p)
        xs = np.array([0, 1, p - 2, p - 1], dtype=np.uint64)
        assert perm.apply_array(xs).tolist() == [perm.apply(int(x)) for x in xs]
        assert perm.stack([perm]).min_over(p - 2, p - 1).tolist() == [
            min(perm.apply(p - 2), perm.apply(p - 1))
        ]


class TestSemantics:
    def test_known_values(self):
        perm = LinearPermutation(3, 4, p=7)
        assert [perm.apply(x) for x in range(7)] == [4, 0, 3, 6, 2, 5, 1]

    def test_bijective_small_prime(self):
        perm = LinearPermutation(5, 2, p=11)
        assert {perm.apply(x) for x in range(11)} == set(range(11))

    def test_inverse(self):
        perm = LinearPermutation(12345, 6789, p=MERSENNE_31)
        for x in (0, 1, 99999, MERSENNE_31 - 1):
            assert perm.inverse(perm.apply(x)) == x

    def test_apply_array_matches_scalar(self, rng):
        perm = LinearFamily().sample(rng)
        xs = np.arange(0, 2000, dtype=np.uint64)
        fast = perm.apply_array(xs)
        slow = np.array([perm.apply(int(x)) for x in xs], dtype=np.uint64)
        assert (fast == slow).all()

    def test_apply_array_no_overflow_at_domain_edge(self, rng):
        perm = LinearPermutation(MERSENNE_31 - 1, MERSENNE_31 - 1)
        xs = np.array([MERSENNE_31 - 1], dtype=np.uint64)
        assert int(perm.apply_array(xs)[0]) == perm.apply(MERSENNE_31 - 1)

    @given(st.integers(1, 10**6), st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_bijectivity_property(self, a, b):
        perm = LinearPermutation(a, b, p=MERSENNE_31)
        xs = list(range(0, 500))
        images = {perm.apply(x) for x in xs}
        assert len(images) == len(xs)

    @given(st.data(), st.sampled_from((2, 3, 1009, 65537, MERSENNE_31, 4294967291)))
    @settings(max_examples=200)
    def test_min_of_progression_equals_enumeration(self, data, m):
        a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        n = data.draw(st.integers(1, min(m, 3000)))
        assert min_of_progression(n, m, a, b) == min((a * x + b) % m for x in range(n))

    def test_family_sampling_deterministic(self):
        x = LinearFamily().sample(derive_rng(5, "lin"))
        y = LinearFamily().sample(derive_rng(5, "lin"))
        assert (x.a, x.b) == (y.a, y.b)

    def test_family_rejects_composite(self):
        with pytest.raises(HashFamilyError):
            LinearFamily(p=100)
