"""The paper's collision contract, on the ``table`` family.

Two ranges with Jaccard similarity ``J`` share at least one of their
``l`` identifiers with probability ``1 - (1 - J^k)^l`` when every group
is ``k`` exactly min-wise independent functions.  ``table`` permutations
are exactly min-wise, so over many scheme seeds the found rate of a pair
set must sit within sampling error of the mean of that formula over the
pairs.  (The bit-position families do not meet it; their bands are
measured separately.)
"""

from __future__ import annotations

import math

import pytest

from repro.lsh import LSHIdentifierScheme, family_for_domain
from repro.lsh.theory import group_match_probability
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.util.rng import derive_rng

DOMAIN = Domain("value", 0, 1000)
L, K = 5, 20
SEEDS = range(30)
PAIRS_PER_SEED = 40
Z_99 = 2.576


@pytest.fixture(scope="module")
def schemes() -> list[LSHIdentifierScheme]:
    family = family_for_domain("table", DOMAIN)
    return [LSHIdentifierScheme.from_family(family, l=L, k=K, seed=seed) for seed in SEEDS]


def shifted(rng, spread: int) -> tuple[IntRange, IntRange]:
    """Two equal-width ranges, one shifted by ``width / spread``: ``J``
    near ``(spread - 1) / (spread + 1)``."""
    width = int(rng.integers(50, 401))
    shift = max(1, round(width / spread))
    start = int(rng.integers(DOMAIN.low, DOMAIN.high - width - shift + 2))
    return (
        IntRange(start, start + width - 1),
        IntRange(start + shift, start + shift + width - 1),
    )


def nested(rng) -> tuple[IntRange, IntRange]:
    """A range and a range inside it with ``J`` in [0.90, 0.95)."""
    width = int(rng.integers(50, 401))
    trim = int(rng.integers(math.floor(0.05 * width) + 1, math.floor(0.10 * width) + 1))
    left = int(rng.integers(0, trim + 1))
    start = int(rng.integers(DOMAIN.low, DOMAIN.high - width + 2))
    outer = IntRange(start, start + width - 1)
    return outer, IntRange(start + left, outer.end - (trim - left))


PAIRS = {
    "shifted J~0.90": lambda rng: shifted(rng, 19),
    "shifted J~0.95": lambda rng: shifted(rng, 39),
    "nested J in [0.90, 0.95)": nested,
}


@pytest.mark.parametrize("kind", list(PAIRS))
def test_table_found_rate_matches_the_formula(schemes, kind):
    found, predicted, variance = 0, 0.0, 0.0
    for seed, scheme in zip(SEEDS, schemes):
        rng = derive_rng(seed, f"test/collision-contract/{kind}")
        for _ in range(PAIRS_PER_SEED):
            query, cached = PAIRS[kind](rng)
            similarity = query.jaccard(cached)
            p = group_match_probability(similarity, K, L)
            predicted += p
            variance += p * (1.0 - p)
            found += any(
                a == b
                for a, b in zip(scheme.identifiers(query), scheme.identifiers(cached))
            )
    n = len(SEEDS) * PAIRS_PER_SEED
    bound = Z_99 * math.sqrt(variance) / n
    assert abs(found / n - predicted / n) <= bound, (found / n, predicted / n, bound)
