"""The recursive bit-shuffle permutation network of the paper's Figure 3.

The paper builds a (min-wise independent style) permutation of the ``w``-bit
integer space as a cascade of shuffle iterations:

1. draw a ``w``-bit key with exactly ``w/2`` random bits set; move the bits
   of the input word whose positions carry a key 1 to the upper half (in
   order) and the rest to the lower half (in order);
2. draw a ``w/2``-bit key with ``w/4`` ones and shuffle each half the same
   way; and so on, until every 2-bit block has been permuted.

Each iteration is a permutation of *bit positions*, so the whole cascade is
a bijection of ``[0, 2^w)``.  The keys for a 32-bit space total
``32 + 16 + 8 + 4 + 2 = 62`` bits ("representable as two [32-bit] integers"
in the paper's 8-bit example scaled up).
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashFamilyError
from repro.lsh.base import Permutation, PermutationFamily, PermutationStack
from repro.util.bitops import is_power_of_two, ones_positions, popcount, random_key_with_ones

__all__ = [
    "BitPositionPermutation",
    "BitShufflePermutation",
    "MinWiseFamily",
    "shuffle_once",
    "bit_position_map",
    "block_starts",
    "check_width",
]

#: Bit ``b`` of every byte value, as a 256 x 8 array of zeros and ones.
_BYTE_BITS = (
    np.arange(256, dtype=np.uint64)[:, None] >> np.arange(8, dtype=np.uint64)
) & np.uint64(1)


def check_width(width: int) -> None:
    """Raise unless ``width`` can be halved down to 2-bit blocks."""
    if not is_power_of_two(width) or width < 2:
        raise HashFamilyError("width must be a power of two >= 2")


def shuffle_once(x: int, key: int, block_size: int, width: int) -> int:
    """One shuffle iteration applied to every ``block_size`` block of ``x``.

    Within each block, bits at positions where ``key`` has a 1 move to the
    upper half of the block in order; the others move to the lower half in
    order.  This is the literal operation of Figure 3.
    """
    half = block_size // 2
    ones = ones_positions(key, block_size)
    zeros = [j for j in range(block_size) if not (key >> j) & 1]
    out = 0
    for base in range(0, width, block_size):
        block = (x >> base) & ((1 << block_size) - 1)
        permuted = 0
        for rank, j in enumerate(zeros):
            permuted |= ((block >> j) & 1) << rank
        for rank, j in enumerate(ones):
            permuted |= ((block >> j) & 1) << (half + rank)
        out |= permuted << base
    return out


def bit_position_map(width: int, keys: list[int]) -> list[int]:
    """Destination slot of every input bit after the full key cascade.

    ``keys[i]`` is the key for iteration ``i`` (block size ``width >> i``).
    Returns ``dest`` with ``dest[src] = final position of input bit src``.
    """
    # current[slot] = which input bit currently occupies that slot.
    current = list(range(width))
    block_size = width
    for key in keys:
        half = block_size // 2
        ones = ones_positions(key, block_size)
        zeros = [j for j in range(block_size) if not (key >> j) & 1]
        moved = [0] * width
        for base in range(0, width, block_size):
            for rank, j in enumerate(zeros):
                moved[base + rank] = current[base + j]
            for rank, j in enumerate(ones):
                moved[base + half + rank] = current[base + j]
        current = moved
        block_size = half
    dest = [0] * width
    for slot, src in enumerate(current):
        dest[src] = slot
    return dest


class BitPositionPermutation(Permutation):
    """A permutation of the ``width``-bit space that moves bit positions.

    Both shuffle families are this: ``keys`` is the cascade
    :func:`bit_position_map` follows, one key for the approximate family
    and ``log2(width)`` for the full network.  The map, the per-byte
    scatter tables built from it, :meth:`apply_array` and the interval
    minimum (:class:`BitPositionStack`) live here once; subclasses
    validate their keys and supply the honest scalar :meth:`apply`.  The
    tables are built in the constructor, so a permutation is ready for
    arrays as soon as it exists.
    """

    def __init__(self, keys: list[int], width: int) -> None:
        self.width = width
        self.space_size = 1 << width
        self._dest = bit_position_map(width, keys)
        self._byte_tables = self._build_byte_tables()

    def _build_byte_tables(self) -> list[np.ndarray]:
        """Per-byte scatter tables, ``(width + 7) // 8`` of 256 slots:
        the image of ``x`` is the OR of one lookup per byte of ``x``.

        Input bit ``src`` weighs ``1 << dest[src]``; a byte value's slot
        is the sum of the weights of its set bits, which are disjoint, so
        the sum is the OR.  One product fills every slot of every table.
        """
        n_bytes = (self.width + 7) // 8
        weights = np.zeros(n_bytes * 8, dtype=np.uint64)
        weights[: self.width] = np.uint64(1) << np.asarray(self._dest, dtype=np.uint64)
        return list(np.ascontiguousarray((_BYTE_BITS @ weights.reshape(n_bytes, 8).T).T))

    def apply_array(self, xs: np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=np.uint64)
        out = np.zeros(arr.shape, dtype=np.uint64)
        for byte_index, table in enumerate(self._byte_tables):
            chunk = (arr >> np.uint64(8 * byte_index)) & np.uint64(0xFF)
            out |= table[chunk.astype(np.intp)]
        return out

    @classmethod
    def stack(cls, perms: list["BitPositionPermutation"]) -> "BitPositionStack":
        return BitPositionStack(perms)


def block_starts(start: int, end: int) -> list[int]:
    """The starts ``B <= end`` of the aligned blocks ``[B, B + lowbit(B))``
    that follow one another from ``start``: together they cover ``[start,
    end]``, and since the lowest set bit at least doubles from one start
    to the next there is at most one per bit.  ``B = 0`` is the block of
    everything."""
    starts = [start]
    while start and (start := start + (start & -start)) <= end:
        starts.append(start)
    return starts


class BitPositionStack(PermutationStack):
    """Interval minima of bit-position permutations, in closed form: on an
    aligned block ``[B, B + 2^j)``, ``pi(B + y) = pi(B) | pi(y)`` over
    disjoint bits, so no value of the block maps below ``pi(B)`` and a
    range's minimum is the least image of its :func:`block_starts`
    (DESIGN §17.1).  Every function's byte tables are stacked as
    ``(256, functions)`` per byte; bytes above ``end``'s top byte are zero
    in every start and ``table[0] == 0``, so they are skipped."""

    def __init__(self, perms: list[BitPositionPermutation]) -> None:
        super().__init__(perms)
        self._tables = [
            np.stack(per_byte, axis=1) for per_byte in zip(*(p._byte_tables for p in perms))
        ]

    def _min_over(self, start: int, end: int) -> np.ndarray:
        starts = block_starts(start, end)
        images = self._tables[0].take([s & 0xFF for s in starts], axis=0)
        for byte_index in range(1, (end.bit_length() + 7) // 8):
            shift = 8 * byte_index
            images |= self._tables[byte_index].take([(s >> shift) & 0xFF for s in starts], axis=0)
        return images.min(axis=0)


class BitShufflePermutation(BitPositionPermutation):
    """A fully-cascaded bit-shuffle permutation of the ``width``-bit space.

    ``keys`` must contain one key per iteration with block sizes
    ``width, width/2, ..., 2`` and exactly half the block's bits set in each
    key.  The scalar :meth:`apply` performs the honest iteration-by-
    iteration shuffle (preserving the paper's computational cost for the
    Figure 5 experiment); arrays go through the inherited byte tables.
    """

    def __init__(self, keys: list[int], width: int = 32) -> None:
        check_width(width)
        expected_keys = width.bit_length() - 1  # log2(width)
        if len(keys) != expected_keys:
            raise HashFamilyError(
                f"width {width} needs {expected_keys} keys, got {len(keys)}"
            )
        block_size = width
        for level, key in enumerate(keys):
            if not 0 <= key < (1 << block_size):
                raise HashFamilyError(
                    f"key {level} does not fit in {block_size} bits"
                )
            if popcount(key) != block_size // 2:
                raise HashFamilyError(
                    f"key {level} must have exactly {block_size // 2} ones"
                )
            block_size //= 2
        self.keys = list(keys)
        super().__init__(self.keys, width)

    def apply(self, x: int) -> int:
        """Shuffle ``x`` one iteration at a time, as Figure 3 describes."""
        self.validate_input(x)
        block_size = self.width
        for key in self.keys:
            x = shuffle_once(x, key, block_size, self.width)
            block_size //= 2
        return x

    def __repr__(self) -> str:
        return f"BitShufflePermutation(width={self.width}, keys={self.keys!r})"


class MinWiseFamily(PermutationFamily):
    """The full min-wise independent permutation family (all iterations)."""

    name = "min-wise"

    def __init__(self, width: int = 32) -> None:
        check_width(width)
        self.width = width

    def sample(self, rng: np.random.Generator) -> BitShufflePermutation:
        keys: list[int] = []
        block_size = self.width
        while block_size >= 2:
            keys.append(random_key_with_ones(block_size, block_size // 2, rng))
            block_size //= 2
        return BitShufflePermutation(keys, width=self.width)
