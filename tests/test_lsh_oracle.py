"""The hashing front against its reference implementations.

``BitPositionPermutation`` builds its byte tables with one array product;
the nested loop it replaced is kept here, verbatim, as the oracle.  The
window minima a sparse-table index over the domain used to hold are built
that way for every registered family and read back through the scheme's
closed-form ``min_over``, and the identifiers a default system hashes to
are pinned by digests taken before either rewrite.  Nothing here reads a
clock.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.core.placement import HashedPlacement
from repro.lsh.approx import ApproxMinWiseFamily, ApproxMinWisePermutation
from repro.lsh.bitshuffle import (
    BitPositionPermutation,
    BitShufflePermutation,
    MinWiseFamily,
    bit_position_map,
)
from repro.lsh.families import FAMILIES, family_for_domain
from repro.lsh.groups import LSHIdentifierScheme
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

WIDTHS = (8, 16, 32, 64)


def reference_byte_tables(dest: list[int], width: int) -> list[np.ndarray]:
    """The table builder both shuffle families carried before they shared
    one: per byte value, an 8-deep loop over its bits."""
    n_bytes = (width + 7) // 8
    tables: list[np.ndarray] = []
    for byte_index in range(n_bytes):
        table = np.zeros(256, dtype=np.uint64)
        base = byte_index * 8
        for byte_value in range(256):
            scattered = 0
            for bit in range(8):
                src = base + bit
                if src < width and (byte_value >> bit) & 1:
                    scattered |= 1 << dest[src]
            table[byte_value] = scattered
        tables.append(table)
    return tables


def reference_apply_array(tables: list[np.ndarray], xs: np.ndarray) -> np.ndarray:
    arr = np.asarray(xs, dtype=np.uint64)
    out = np.zeros(arr.shape, dtype=np.uint64)
    for byte_index, table in enumerate(tables):
        chunk = (arr >> np.uint64(8 * byte_index)) & np.uint64(0xFF)
        out |= table[chunk.astype(np.intp)]
    return out


def reference_approx_dest(key: int, width: int) -> list[int]:
    """The approximate family's own ``dest`` computation, as it was."""
    half = width // 2
    ones = [j for j in range(width) if (key >> j) & 1]
    zeros = [j for j in range(width) if not (key >> j) & 1]
    dest = [0] * width
    for rank, j in enumerate(zeros):
        dest[j] = rank
    for rank, j in enumerate(ones):
        dest[j] = half + rank
    return dest


@st.composite
def permutations(draw) -> BitPositionPermutation:
    """A validly keyed permutation of either shuffle family."""
    width = draw(st.sampled_from(WIDTHS))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from((ApproxMinWiseFamily, MinWiseFamily)))
    return family(width=width).sample(np.random.default_rng(seed))


@given(permutations())
@settings(max_examples=120, deadline=None)
def test_byte_tables_equal_the_loop_builder_slot_for_slot(perm):
    keys = [perm.key] if isinstance(perm, ApproxMinWisePermutation) else perm.keys
    dest = bit_position_map(perm.width, keys)
    expected = reference_byte_tables(dest, perm.width)
    assert len(perm._byte_tables) == len(expected)
    for built, reference in zip(perm._byte_tables, expected):
        assert built.dtype == np.uint64 and built.shape == (256,)
        assert np.array_equal(built, reference)


@given(permutations(), st.data())
@settings(max_examples=60, deadline=None)
def test_apply_array_equals_the_scalar_apply(perm, data):
    top = (1 << perm.width) - 1
    xs = [0, top] + data.draw(st.lists(st.integers(0, top), max_size=40))
    got = perm.apply_array(np.array(xs, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [perm.apply(x) for x in xs]


@given(st.sampled_from(WIDTHS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_key_cascade_is_the_approximate_familys_own_map(width, seed):
    perm = ApproxMinWiseFamily(width=width).sample(np.random.default_rng(seed))
    assert perm._dest == reference_approx_dest(perm.key, width)


def test_both_families_share_the_one_table_builder():
    for cls in (ApproxMinWisePermutation, BitShufflePermutation):
        assert issubclass(cls, BitPositionPermutation)
        assert "_build_byte_tables" not in vars(cls)
        assert "apply_array" not in vars(cls)


def test_tables_are_built_by_the_constructor():
    perm = ApproxMinWisePermutation(0x0F0F0F0F)
    assert perm._byte_tables is not None
    assert int(perm.apply_array(np.array([1], dtype=np.uint64))[0]) == perm.apply(1)


def reference_window_minima(scheme: LSHIdentifierScheme, domain: Domain) -> list[np.ndarray]:
    """The sparse table from scalar images or loop-built byte tables:
    ``levels[j][f, i]`` is the minimum of function ``f`` over the
    ``2**j`` domain values from ``domain.low + i``."""
    values = domain.full_range().to_array()
    rows = []
    for fn in scheme.all_functions():
        perm = fn.permutation
        if isinstance(perm, BitPositionPermutation):
            tables = reference_byte_tables(perm._dest, perm.width)
            rows.append(reference_apply_array(tables, values))
        else:
            rows.append(
                np.array([perm.apply(int(v)) for v in values], dtype=np.uint64)
            )
    levels = [np.stack(rows)]
    span = 2
    while span <= len(values):
        prev = levels[-1]
        width = len(values) - span + 1
        levels.append(
            np.minimum(prev[:, :width], prev[:, span // 2 : span // 2 + width])
        )
        span *= 2
    return levels


@pytest.mark.parametrize(
    "domain", [SystemConfig().domain, Domain("odd", 3, 777)], ids=["default", "odd"]
)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_index_levels_equal_the_reference_for_every_family(family, domain):
    scheme = LSHIdentifierScheme.from_family(
        family_for_domain(family, domain), l=2, k=5, seed=24
    )
    for j, reference in enumerate(reference_window_minima(scheme, domain)):
        span = 1 << j
        windows = [
            scheme.minhashes(IntRange(start, start + span - 1))
            for start in range(domain.low, domain.low + reference.shape[1])
        ]
        assert np.array_equal(np.stack(windows, axis=1), reference)
    for r in (domain.full_range(), IntRange(domain.low, domain.low), IntRange(40, 613)):
        assert scheme.minhashes(r).dtype == np.uint64
        assert scheme.identifiers(r) == scheme.identifiers_slow(r)


#: sha256 over ``identifiers_for`` of the ranges ``digest`` draws, taken
#: at the parent commit (PR 22, the loop-built tables).
PARENT_DIGESTS = {
    ("approx-min-wise", False): "5fd982b3ef8c184357b982df2630a96b675da191d0563b7af968e9fee0941871",
    ("linear", False): "78095aa576d75bfa64dd67d4c01d78c784e100fd6eb462b524bb204f6a97334b",
    ("min-wise", False): "f058f3f9d08921acd7a4e6a228dbdf8866e9b88594d02a1b6203d2c6fc0a5922",
    ("table", False): "7652e007dd13efa7a5a6cba3255ab2bda7e14308e93cab77c13114a8e871b756",
    ("approx-min-wise", True): "f6983c171ff7eb8bb8d07b8fb45eddf341c2ed8866b87852cbdee0a739d368e0",
    ("min-wise", True): "144e0fbe3819c26230d522564812561e5b46869258a87fc3906be1bc2091aecb",
}


def digest(family: str, wide: bool) -> str:
    """1,000 seeded ranges inside the default domain (the index path) or,
    ``wide``, 100 reaching up to 2**20 (the direct path, every byte
    table in play)."""
    placement = HashedPlacement(SystemConfig(family=family))
    rnd = random.Random(24)
    high = (1 << 20) if wide else placement.config.domain.high
    sha = hashlib.sha256()
    for _ in range(100 if wide else 1000):
        start = rnd.randint(0, high)
        end = rnd.randint(start, min(high, start + 3000))
        sha.update(repr(placement.identifiers_for(IntRange(start, end))).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("family,wide", sorted(PARENT_DIGESTS))
def test_identifiers_are_those_of_the_parent_commit(family, wide):
    assert digest(family, wide) == PARENT_DIGESTS[(family, wide)]


def test_every_registered_family_has_a_pinned_digest():
    assert {family for family, _ in PARENT_DIGESTS} == set(FAMILIES)
