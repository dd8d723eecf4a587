"""Multi-attribute selections (the paper's Section 6 future work).

"In the future, we will address the problem of locating horizontal
partitions obtained by multiattribute selections."  This module takes the
natural first step the paper's machinery suggests: hash each attribute's
range independently through the same LSH scheme, locate candidates per
attribute, and combine the per-attribute answers.  The joint recall of the
combined match is the product of per-attribute recalls when attribute
values are independent, and that product is what we report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.system import RangeSelectionSystem
from repro.errors import ConfigError
from repro.ranges.interval import IntRange
from repro.rpc.engine import TimedQueryResult

__all__ = ["MultiAttributeQuery", "MultiAttributeResult"]


@dataclass(frozen=True)
class MultiAttributeQuery:
    """A conjunctive selection over several attributes of one relation."""

    relation: str
    ranges: tuple[tuple[str, IntRange], ...]

    def __post_init__(self) -> None:
        attrs = [a for a, _ in self.ranges]
        if not attrs:
            raise ConfigError("multi-attribute query needs at least one range")
        if len(set(attrs)) != len(attrs):
            raise ConfigError(f"duplicate attributes in {attrs}")

    @classmethod
    def of(cls, relation: str, **ranges: IntRange) -> "MultiAttributeQuery":
        """Convenience constructor: ``MultiAttributeQuery.of("R", age=...)``."""
        return cls(relation, tuple(sorted(ranges.items())))


@dataclass(frozen=True)
class MultiAttributeResult:
    """Combined outcome across the query's attributes."""

    query: MultiAttributeQuery
    per_attribute: tuple[tuple[str, TimedQueryResult], ...]
    joint_recall: float
    overlay_hops: int
    peers_contacted: int

    @property
    def all_matched(self) -> bool:
        """Whether every attribute found some cached partition."""
        return all(r.found for _, r in self.per_attribute)


def query_multi_attribute(
    system: RangeSelectionSystem, query: MultiAttributeQuery
) -> MultiAttributeResult:
    """Run one multi-attribute selection through the system.

    Each attribute range is located (and cached on miss) independently,
    namespaced by ``(relation, attribute)`` so partitions of different
    attributes never collide in a bucket.
    """
    results: list[tuple[str, TimedQueryResult]] = []
    hops = 0
    contacted = 0
    for attribute, r in query.ranges:
        result = system.query(r, relation=query.relation, attribute=attribute)
        results.append((attribute, result))
        hops += result.overlay_hops
        contacted += result.peers_contacted
    joint = math.prod(result.recall for _, result in results)
    return MultiAttributeResult(
        query=query,
        per_attribute=tuple(results),
        joint_recall=joint,
        overlay_hops=hops,
        peers_contacted=contacted,
    )
