"""Composite answers: combine every located partition, report the gap.

Section 5.2: "the system can present the user the part of the answer it is
able to find fast, and can also let them know what selection ranges this
answer corresponds to.  If the user is not satisfied with the answer, they
have a choice to go to the source for the rest of the answer."

The base procedure uses only the single best reply.  A querying peer,
however, receives up to ``l`` candidate partitions — one per contacted
owner — and nothing stops it from using *all* of them: their union can
cover more of the query than any single candidate.  This module implements
that composition and computes exactly what the paper proposes to tell the
user: the covered ranges, the combined recall, and the residual ranges a
source visit would still have to fetch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import RangeSelectionSystem
from repro.db.partition import PartitionDescriptor
from repro.ranges.interval import IntRange
from repro.ranges.rangeset import RangeSet
from repro.rpc.engine import LocatePhase

__all__ = ["CompositeAnswer", "query_composite"]


@dataclass(frozen=True)
class CompositeAnswer:
    """The union of all located partitions, measured against the query."""

    query: IntRange
    parts: tuple[PartitionDescriptor, ...]
    covered: RangeSet
    residual: RangeSet
    recall: float
    best_single_recall: float
    overlay_hops: int
    peers_contacted: int

    @property
    def complete(self) -> bool:
        """Whether the composite fully answers the query."""
        return not self.residual

    @property
    def gain_over_best_single(self) -> float:
        """Extra recall obtained by composing instead of picking one."""
        return self.recall - self.best_single_recall

    def describe(self) -> str:
        """The user-facing message Section 5.2 sketches."""
        if self.complete:
            return f"query {self.query}: fully covered by {len(self.parts)} partition(s)"
        return (
            f"query {self.query}: covered {self.covered} "
            f"({self.recall:.0%}); missing {self.residual} — "
            "fetch the remainder from the source if needed"
        )


def compose_replies(query: IntRange, located: LocatePhase) -> CompositeAnswer:
    """Build a composite answer from a locate result."""
    parts = tuple(
        chain.reply.descriptor
        for chain in located.chains
        if chain.reply is not None and chain.reply.descriptor is not None
    )
    clipped = [
        part.range.intersect(query)
        for part in parts
        if part.range.intersect(query) is not None
    ]
    covered = RangeSet(clipped)
    residual = RangeSet((query,)).difference(covered)
    best_single = max(
        (part.containment_of(query) for part in parts), default=0.0
    )
    return CompositeAnswer(
        query=query,
        parts=parts,
        covered=covered,
        residual=residual,
        recall=covered.coverage_of(query),
        best_single_recall=best_single,
        overlay_hops=located.overlay_hops,
        peers_contacted=located.peers_contacted,
    )


def query_composite(
    system: RangeSelectionSystem,
    query: IntRange,
    relation: str = "R",
    attribute: str = "value",
    origin: int | None = None,
    padding: float | None = None,
) -> CompositeAnswer:
    """Run the locate step and compose *all* replies into one answer.

    Mirrors :meth:`RangeSelectionSystem.query` (including padding and
    store-on-miss) but measures the union of candidates instead of the
    single best one.
    """
    if origin is None:
        origin = system.pick_origin()
    hashed, _ = system.pad_query(query, padding)
    located = system.locate(hashed, relation, attribute, origin=origin)
    answer = compose_replies(query, located)
    exact = any(part.range == hashed for part in answer.parts)
    if not exact and system.config.store_on_miss:
        system.store_partition(
            hashed,
            relation,
            attribute,
            origin=origin,
            identifiers=list(located.identifiers),
        )
    return answer
