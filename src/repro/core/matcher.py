"""In-bucket match scoring.

The LSH family is necessarily defined for Jaccard similarity (Section 3.2),
but *within* a located bucket any measure may rank candidates.  Section 5.2
shows containment matching answers far more queries completely; both
matchers are provided, plus a registry for config-by-name.

A cached range is two integers, so scoring a whole bucket is arithmetic
over two int columns.  Each matcher's ``score`` therefore carries two
twins: a vectorised ``score.columns(query, starts, ends)`` — a float64
array holding, bit for bit, what ``score`` returns for each
``IntRange(starts[i], ends[i])`` — and a scalar ``score.scalar(query,
ranges)`` — the same floats as a list, from one Python loop over the
ranges' int bounds, for buckets too small to pay numpy's fixed cost.  The
twins hang on the *function*, so they travel with the bound method
callers pass around (``matcher_by_name(name).score``) and a subclass that
overrides ``score`` sheds them; :class:`~repro.storage.bucket.Bucket`
looks for them and falls back to calling ``score`` per entry when they
are absent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

import numpy as np

from repro.db.partition import PartitionDescriptor
from repro.ranges.interval import IntRange

__all__ = ["Matcher", "JaccardMatcher", "ContainmentMatcher", "matcher_by_name"]


def _twins(
    columns: Callable[[IntRange, np.ndarray, np.ndarray], np.ndarray],
    scalar: Callable[[IntRange, Iterable[IntRange]], list[float]],
):
    """Decorator pairing a per-entry ``score`` with its column form and
    its scalar loop."""

    def attach(score):
        score.columns = columns
        score.scalar = scalar
        return score

    return attach


def _overlap_and_jaccard(
    query: IntRange, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(|Q ∩ R|, jaccard(Q, R))`` for every ``R = [starts[i], ends[i]]``.

    Mirrors :meth:`IntRange.jaccard`: the sizes are exact integers and the
    one rounding step is the same int/int true division, so each value
    equals the scalar result exactly (an empty overlap gives ``0 / union``,
    which is the scalar code's literal ``0.0``).  Callers keep every bound
    small enough that the sizes are exact in float64.
    """
    overlap = np.minimum(ends, query.end)
    overlap -= np.maximum(starts, query.start)
    overlap += 1
    np.maximum(overlap, 0, out=overlap)
    union = ends - starts
    union += len(query) + 1
    union -= overlap
    return overlap, overlap / union


def _jaccard_columns(query: IntRange, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    return _overlap_and_jaccard(query, starts, ends)[1]


def _containment_columns(
    query: IntRange, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    overlap, scores = _overlap_and_jaccard(query, starts, ends)
    scores *= 1e-3
    scores += overlap / len(query)
    return scores


# The scalar twins inline IntRange.intersection_size / union_size / __len__
# over plain ints: the same integers reach the same int/int divisions (and
# an empty overlap the same literal 0.0), so each float is the one the
# per-entry ``score`` returns.

def _jaccard_scalar(query: IntRange, ranges: Iterable[IntRange]) -> list[float]:
    low, high = query.start, query.end
    size = high - low + 1
    scores = []
    for r in ranges:
        start, end = r.start, r.end
        overlap = (end if end < high else high) - (start if start > low else low) + 1
        scores.append(overlap / (size + end - start + 1 - overlap) if overlap > 0 else 0.0)
    return scores


def _containment_scalar(query: IntRange, ranges: Iterable[IntRange]) -> list[float]:
    low, high = query.start, query.end
    size = high - low + 1
    scores = []
    for r in ranges:
        start, end = r.start, r.end
        overlap = (end if end < high else high) - (start if start > low else low) + 1
        scores.append(
            overlap / size + 1e-3 * (overlap / (size + end - start + 1 - overlap))
            if overlap > 0
            else 0.0
        )
    return scores


class Matcher(ABC):
    """Scores a cached partition against a query range (higher is better)."""

    name: str = "abstract"

    @abstractmethod
    def score(self, query: IntRange, candidate: PartitionDescriptor) -> float:
        """The candidate's score for this query."""


class JaccardMatcher(Matcher):
    """Rank by Jaccard similarity — the measure the hashing is built on."""

    name = "jaccard"

    @_twins(_jaccard_columns, _jaccard_scalar)
    def score(self, query: IntRange, candidate: PartitionDescriptor) -> float:
        return candidate.jaccard_to(query)


class ContainmentMatcher(Matcher):
    """Rank by containment ``|Q ∩ R| / |Q|`` — "the more realistic
    similarity measure" from the user's perspective (Section 5.2).

    Ties (e.g. several candidates fully containing the query) are broken by
    Jaccard, preferring the *tightest* containing partition, which keeps
    transfer sizes down.
    """

    name = "containment"

    @_twins(_containment_columns, _containment_scalar)
    def score(self, query: IntRange, candidate: PartitionDescriptor) -> float:
        # The epsilon-weighted Jaccard term only reorders candidates with
        # equal containment; containment dominates because it is weighted
        # three orders of magnitude higher and both terms live in [0, 1].
        return candidate.containment_of(query) + 1e-3 * candidate.jaccard_to(query)


_MATCHERS: dict[str, type[Matcher]] = {
    JaccardMatcher.name: JaccardMatcher,
    ContainmentMatcher.name: ContainmentMatcher,
}


def matcher_by_name(name: str) -> Matcher:
    """Instantiate a matcher from its canonical name."""
    try:
        return _MATCHERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown matcher {name!r}; choose from {sorted(_MATCHERS)}"
        ) from None
