"""Tests for the full bit-shuffle (min-wise) permutation network."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashFamilyError
from repro.lsh.base import MinHash
from repro.lsh.bitshuffle import (
    BitShufflePermutation,
    MinWiseFamily,
    bit_position_map,
    shuffle_once,
)
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng


class TestShuffleOnce:
    def test_paper_8bit_semantics(self):
        """One iteration: key-1 bits to the upper half in order, key-0 bits
        to the lower half in order (Figure 3a)."""
        width = 8
        key = 0b01010101  # ones at even positions
        x = 0b11110000
        out = shuffle_once(x, key, width, width)
        # ones of key: positions 0,2,4,6 carry bits (0,0,1,1) -> upper half
        # zeros of key: positions 1,3,5,7 carry bits (0,0,1,1) -> lower half
        assert out == 0b11001100

    def test_identity_on_zero(self):
        assert shuffle_once(0, 0b01010101, 8, 8) == 0

    def test_all_ones_invariant(self):
        assert shuffle_once(0xFF, 0b00110101, 8, 8) == 0xFF

    def test_blockwise_application(self):
        # With block size 4 over an 8-bit word, both nibbles use the key.
        width, block = 8, 4
        key = 0b0011
        x = 0b0011_0011
        out = shuffle_once(x, key, block, width)
        # ones of key: positions 0,1 (values 1,1) -> upper half of block
        assert out == 0b1100_1100


class TestBitPositionMap:
    def test_map_agrees_with_iterated_shuffle(self, rng):
        family = MinWiseFamily(width=32)
        for _ in range(5):
            perm = family.sample(rng)
            xs = [0, 1, 255, 1000, 123456, (1 << 32) - 1]
            by_map = perm.apply_array(np.array(xs, dtype=np.uint64))  # byte tables of the map
            assert by_map.tolist() == [perm.apply(x) for x in xs]

    def test_map_is_permutation_of_positions(self, rng):
        family = MinWiseFamily(width=16)
        perm = family.sample(rng)
        mapping = bit_position_map(perm.width, perm.keys)
        assert sorted(mapping) == list(range(16))


class TestBitShufflePermutation:
    def test_key_count_validation(self):
        with pytest.raises(HashFamilyError):
            BitShufflePermutation([0b1100], width=8)  # needs 3 keys

    def test_key_popcount_validation(self):
        # level keys for width 8: 8-bit with 4 ones, 4-bit with 2, 2-bit with 1
        with pytest.raises(HashFamilyError):
            BitShufflePermutation([0b11100000, 0b0011, 0b01], width=8)
        BitShufflePermutation([0b11110000, 0b0011, 0b01], width=8)  # valid

    def test_key_range_validation(self):
        with pytest.raises(HashFamilyError):
            BitShufflePermutation([1 << 9, 0b0011, 0b01], width=8)

    def test_width_validation(self):
        with pytest.raises(HashFamilyError):
            MinWiseFamily(width=12)
        with pytest.raises(HashFamilyError):
            MinWiseFamily(width=1)

    def test_bijective_on_8bit_space(self, rng):
        family = MinWiseFamily(width=8)
        perm = family.sample(rng)
        images = {perm.apply(x) for x in range(256)}
        assert images == set(range(256))

    def test_apply_array_matches_scalar(self, rng):
        perm = MinWiseFamily(width=32).sample(rng)
        xs = np.arange(0, 5000, 7, dtype=np.uint64)
        fast = perm.apply_array(xs)
        slow = np.array([perm.apply(int(x)) for x in xs], dtype=np.uint64)
        assert (fast == slow).all()

    def test_input_validation(self, rng):
        perm = MinWiseFamily(width=8).sample(rng)
        with pytest.raises(ValueError):
            perm.apply(256)
        with pytest.raises(ValueError):
            perm.apply(-1)

    @given(st.integers(0, (1 << 32) - 1))
    @settings(max_examples=30)
    def test_popcount_preserved(self, x):
        """A bit-position permutation never changes the number of set bits."""
        perm = MinWiseFamily(width=32).sample(derive_rng(3, "popcount"))
        assert bin(perm.apply(x)).count("1") == bin(x).count("1")


def min_over(perm, r: IntRange) -> int:
    """The closed-form min-hash of ``r`` under ``perm`` alone."""
    return int(perm.stack([perm]).min_over(r.start, r.end)[0])


class TestMinHash:
    def test_hash_range_matches_slow_path(self, rng):
        mh = MinHash(MinWiseFamily(width=32).sample(rng))
        for r in [IntRange(0, 100), IntRange(30, 50), IntRange(999, 1000)]:
            assert min_over(mh.permutation, r) == mh.hash_range_slow(r)

    def test_min_is_attained(self, rng):
        perm = MinWiseFamily(width=32).sample(rng)
        r = IntRange(10, 30)
        images = [perm.apply(v) for v in r]
        assert min_over(perm, r) == min(images)

    def test_subset_min_dominates(self, rng):
        """min over a superset is <= min over a subset."""
        perm = MinWiseFamily(width=32).sample(rng)
        assert min_over(perm, IntRange(0, 100)) <= min_over(perm, IntRange(20, 80))

    def test_identical_ranges_always_collide(self, rng):
        perm = MinWiseFamily(width=32).sample(rng)
        assert min_over(perm, IntRange(5, 25)) == min_over(perm, IntRange(5, 25))

    def test_sampling_is_seed_deterministic(self):
        a = MinWiseFamily().sample(derive_rng(7, "s"))
        b = MinWiseFamily().sample(derive_rng(7, "s"))
        assert a.keys == b.keys
