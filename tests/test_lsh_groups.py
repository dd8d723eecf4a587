"""Tests for grouped LSH identifiers (l groups x k functions)."""

from __future__ import annotations

import pytest

from repro.errors import HashFamilyError
from repro.lsh import (
    ApproxMinWiseFamily,
    LinearFamily,
    LSHIdentifierScheme,
    MinWiseFamily,
    family_by_name,
)
from repro.lsh.groups import DEFAULT_K, DEFAULT_L, combine_hashes_xor
from repro.ranges.interval import IntRange

import numpy as np


class TestConstruction:
    def test_paper_defaults(self):
        assert (DEFAULT_K, DEFAULT_L) == (20, 5)
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily())
        assert scheme.l == 5 and scheme.k == 20
        assert len(scheme.all_functions()) == 100

    def test_invalid_parameters(self):
        with pytest.raises(HashFamilyError):
            LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), l=0)
        with pytest.raises(HashFamilyError):
            LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), k=0)
        with pytest.raises(HashFamilyError):
            LSHIdentifierScheme([], id_bits=32)

    def test_family_registry(self):
        for name in ("min-wise", "approx-min-wise", "linear", "table"):
            assert family_by_name(name).name == name
        with pytest.raises(KeyError):
            family_by_name("sha1")


class TestDeterminism:
    def test_two_peers_agree_on_identifiers(self):
        """All peers share the global hash functions: building the scheme
        twice from the same seed must yield identical identifiers."""
        a = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=4)
        b = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=4)
        for r in (IntRange(30, 50), IntRange(0, 1000), IntRange(7, 7)):
            assert a.identifiers(r) == b.identifiers(r)

    def test_different_seeds_differ(self):
        # Note the range must avoid 0: pi(0) = 0 for *every* bit-position
        # permutation, so any range containing 0 hashes to identifier 0
        # under all seeds (a real degeneracy of the Figure 3 construction).
        a = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=4)
        b = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=5)
        assert a.identifiers(IntRange(5, 500)) != b.identifiers(IntRange(5, 500))

    def test_families_use_independent_streams(self):
        a = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=4)
        b = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=4)
        assert a.identifiers(IntRange(5, 500)) != b.identifiers(IntRange(5, 500))

    def test_zero_degeneracy_of_bit_shuffle(self):
        """pi(0) = 0 for every bit-position permutation, so every range
        containing 0 gets identifier 0 in every group.  Documented
        behaviour of the paper's construction (not of linear or table
        permutations)."""
        shuffle = LSHIdentifierScheme.from_family(MinWiseFamily(), seed=4)
        assert shuffle.identifiers(IntRange(0, 500)) == [0] * 5
        linear = LSHIdentifierScheme.from_family(LinearFamily(), seed=4)
        assert linear.identifiers(IntRange(0, 500)) != [0] * 5


class TestIdentifiers:
    def test_produces_l_identifiers_in_range(self):
        scheme = LSHIdentifierScheme.from_family(LinearFamily(), l=5, k=20, seed=1)
        ids = scheme.identifiers(IntRange(30, 50))
        assert len(ids) == 5
        assert all(0 <= i < (1 << 32) for i in ids)

    def test_identical_ranges_share_all_identifiers(self):
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=2)
        assert scheme.identifiers(IntRange(5, 99)) == scheme.identifiers(
            IntRange(5, 99)
        )

    def test_slow_path_equals_fast_path(self):
        scheme = LSHIdentifierScheme.from_family(MinWiseFamily(), l=2, k=3, seed=3)
        for r in (IntRange(30, 50), IntRange(0, 20)):
            assert scheme.identifiers(r) == scheme.identifiers_slow(r)

    def test_xor_combination_rule(self):
        """The group identifier is the XOR of its k min-hashes, as in the
        paper's querying-peer pseudocode."""
        scheme = LSHIdentifierScheme.from_family(LinearFamily(), l=1, k=3, seed=6)
        r = IntRange(10, 40)
        expected = 0
        for fn in scheme.groups[0]:
            expected ^= fn.hash_range_slow(r)
        assert scheme.identifiers(r) == [expected & 0xFFFFFFFF]

    def test_id_bits_mask(self):
        scheme = LSHIdentifierScheme.from_family(
            LinearFamily(), l=3, k=2, seed=6, id_bits=8
        )
        assert all(0 <= i < 256 for i in scheme.identifiers(IntRange(0, 100)))

    def test_combine_hashes_xor_helper(self):
        values = np.array([1, 2, 4, 8, 16, 32], dtype=np.uint64)
        out = combine_hashes_xor(values, l=2, k=3, mask=0xFF)
        assert list(out) == [1 ^ 2 ^ 4, 8 ^ 16 ^ 32]


class TestTheoryHook:
    def test_match_probability_endpoints(self):
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=0)
        assert scheme.match_probability(0.0) == 0.0
        assert scheme.match_probability(1.0) == 1.0

    def test_match_probability_step_at_09(self):
        """The paper's (k=20, l=5): near-zero below ~0.7, near-one at 0.97."""
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=0)
        assert scheme.match_probability(0.5) < 0.01
        assert scheme.match_probability(0.97) > 0.9

    def test_describe(self):
        scheme = LSHIdentifierScheme.from_family(ApproxMinWiseFamily(), seed=0)
        assert "l=5" in scheme.describe() and "k=20" in scheme.describe()
