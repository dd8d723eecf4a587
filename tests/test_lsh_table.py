"""Tests for the ideal table-permutation family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import HashFamilyError
from repro.lsh.table import TablePermutation, TablePermutationFamily
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng


class TestValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(HashFamilyError):
            TablePermutation(
                np.array([0, 0, 2]), np.array([1, 2, 3], dtype=np.uint64)
            )

    def test_rejects_mismatched_tables(self):
        with pytest.raises(HashFamilyError):
            TablePermutation(np.array([0, 1]), np.array([5], dtype=np.uint64))

    def test_rejects_tiny_domain(self):
        with pytest.raises(HashFamilyError):
            TablePermutationFamily(domain_size=1)

    def test_rejects_huge_domain(self):
        with pytest.raises(HashFamilyError):
            TablePermutationFamily(domain_size=1 << 25)


class TestSemantics:
    def test_order_isomorphic_images(self, rng):
        """Codes are sorted, so image order equals permuted-rank order —
        the property that keeps min-hashing exact."""
        family = TablePermutationFamily(domain_size=100)
        perm = family.sample(rng)
        images = perm.apply_array(np.arange(100, dtype=np.uint64))
        # distinct and within 32 bits
        assert len(set(int(v) for v in images)) == 100
        assert int(images.max()) < (1 << 32)

    def test_apply_matches_apply_array(self, rng):
        perm = TablePermutationFamily(domain_size=64).sample(rng)
        xs = np.arange(64, dtype=np.uint64)
        assert all(perm.apply(int(x)) == int(perm.apply_array(xs)[i])
                   for i, x in enumerate(xs))

    def test_input_validation(self, rng):
        perm = TablePermutationFamily(domain_size=10).sample(rng)
        with pytest.raises(ValueError):
            perm.apply(10)

    def test_exact_minwise_collision_probability(self):
        """For true min-wise independence, Pr[h(Q)=h(R)] tracks Jaccard —
        within sampling error over many sampled permutations."""
        family = TablePermutationFamily(domain_size=101)
        q, r = IntRange(0, 50), IntRange(0, 40)  # jaccard = 41/51
        target = q.jaccard(r)
        hits = 0
        trials = 600
        for i in range(trials):
            stack = TablePermutation.stack([family.sample(derive_rng(i, "ideal"))])
            if stack.min_over(q.start, q.end)[0] == stack.min_over(r.start, r.end)[0]:
                hits += 1
        empirical = hits / trials
        assert abs(empirical - target) < 0.06
