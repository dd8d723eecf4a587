"""Closed-form interval minima against the per-element definition.

A scheme hashes a range through one stacked ``min_over`` per permutation
class; ``identifiers_slow`` applies every permutation to every value of
the range.  They must agree bit for bit for every family, space width,
domain and range shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError
from repro.lsh import (
    ApproxMinWiseFamily,
    DomainMinHashIndex,
    LinearFamily,
    LSHIdentifierScheme,
    MinWiseFamily,
)
from repro.lsh.families import FAMILIES, family_for_domain
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange

DOMAIN = Domain("value", 0, 400)
BIT_FAMILIES = ("min-wise", "approx-min-wise")
#: Byte-table boundaries and the default domain's old edge.
EDGES = (256, 65536, 1001, 1 << 32)


def build_scheme(family, l=3, k=4, seed=8):
    return LSHIdentifierScheme.from_family(family, l=l, k=k, seed=seed)


@st.composite
def schemes_and_ranges(draw):
    """A small scheme of any family and a range inside its space: short
    anywhere, width 1, the whole space (when the oracle can afford it),
    across an edge, or against the top of the space."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    if name in BIT_FAMILIES:
        family = FAMILIES[name](width=draw(st.sampled_from((8, 16, 32, 64))))
    else:
        family = family_for_domain(name, Domain("v", 0, draw(st.integers(1, 5000))))
    scheme = build_scheme(family, l=2, k=3, seed=draw(st.integers(0, 2**16)))
    top = scheme.space_size - 1
    shape = draw(st.sampled_from(("short", "point", "full", "edge", "top")))
    length = draw(st.integers(0, 150))
    if shape == "full" and top < 6000:
        return scheme, IntRange(0, top)
    if shape == "point":
        x = draw(st.integers(0, top))
        return scheme, IntRange(x, x)
    if shape == "edge":
        edges = [e for e in EDGES if e <= top] or [top]
        edge = draw(st.sampled_from(edges))
        start = max(0, edge - draw(st.integers(1, 150)))
        return scheme, IntRange(start, min(top, edge + length))
    if shape == "top":
        return scheme, IntRange(max(0, top - length), top)
    start = draw(st.integers(0, top))
    return scheme, IntRange(start, min(top, start + length))


class TestEquivalence:
    @pytest.mark.parametrize(
        "family", [MinWiseFamily(), ApproxMinWiseFamily(), LinearFamily()]
    )
    def test_matches_naive_on_probes(self, family):
        scheme = build_scheme(family)
        for r in (
            IntRange(0, 400),
            IntRange(0, 0),
            IntRange(400, 400),
            IntRange(37, 255),
            IntRange(100, 101),
        ):
            assert scheme.identifiers(r) == scheme.identifiers_slow(r)
        # Far from the origin and long: per-element through apply_array.
        r = IntRange(3_000_017, 3_300_000)
        values = np.arange(r.start, r.end + 1, dtype=np.uint64)
        expected = [int(fn.permutation.apply_array(values).min()) for fn in scheme.all_functions()]
        assert scheme.minhashes(r).tolist() == expected

    @given(schemes_and_ranges())
    @settings(max_examples=400, deadline=None)
    def test_matches_naive_property(self, case):
        scheme, r = case
        assert scheme.identifiers(r) == scheme.identifiers_slow(r)


class TestBoundaries:
    def test_rejects_out_of_domain(self):
        index = DomainMinHashIndex(build_scheme(LinearFamily()), DOMAIN)
        with pytest.raises(DomainError):
            index.identifiers(IntRange(0, 401))
        assert index.identifiers(IntRange(0, 400)) == index.scheme.identifiers(IntRange(0, 400))

    def test_minhashes_group_major_layout(self):
        scheme = build_scheme(LinearFamily(), l=2, k=3)
        r = IntRange(10, 20)
        values = scheme.minhashes(r)
        assert values.shape == (6,) and values.dtype == np.uint64
        assert values.tolist() == [fn.hash_range_slow(r) for fn in scheme.all_functions()]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_min_over_rejects_values_outside_the_space(self, name):
        family = family_for_domain(name, Domain("v", 0, 1000))
        perm = family.sample(np.random.default_rng(5))
        stack = perm.stack([perm])
        top = perm.space_size - 1
        assert stack.min_over(top, top).tolist() == [perm.apply(top)]
        for start, end in ((-1, 3), (top - 3, top + 1), (top + 5, top + 5)):
            with pytest.raises(ValueError):
                perm.apply(start if start < 0 else end)
            with pytest.raises(ValueError):
                stack.min_over(start, end)
