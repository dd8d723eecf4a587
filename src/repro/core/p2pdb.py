"""The relational front end: SQL over the P2P partition cache.

This is the architecture of the paper's Figure 2 end to end: a querying
peer parses SQL, pushes selections to the leaves, locates each leaf's
partition through the DHT, pulls tuples from caching peers (falling back to
the data source when the cache cannot answer), computes the joins locally,
and stores freshly computed partitions back into the system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chord.hashing import key_id
from repro.core.system import RangeSelectionSystem
from repro.db.catalog import Catalog
from repro.db.partition import Partition, PartitionDescriptor
from repro.db.plan.executor import (
    FetchResult,
    PartitionProvider,
    QueryResultSet,
    execute_plan,
)
from repro.db.plan.nodes import LeafSelection, ProjectNode
from repro.db.plan.planner import plan_select
from repro.db.predicates import EqualityPredicate, RangePredicate
from repro.db.sql.parser import parse_select
from repro.ranges.interval import IntRange

__all__ = ["P2PDatabase", "P2PQueryReport", "CachePartitionProvider"]


class CachePartitionProvider(PartitionProvider):
    """Resolves leaf selections through the P2P cache.

    Range selections go through the LSH scheme; equality selections on
    string attributes use exact-match SHA-1 keys (Section 3.1's simple
    case); bare scans always hit the source.

    ``fallback_to_source=False`` gives the paper's approximate behaviour:
    the user gets whatever portion of the answer the best cached partition
    provides, and nothing is fetched from the source.
    """

    def __init__(
        self,
        catalog: Catalog,
        system: RangeSelectionSystem,
        fallback_to_source: bool = True,
    ) -> None:
        self.catalog = catalog
        self.system = system
        self.fallback_to_source = fallback_to_source

    # ------------------------------------------------------------------

    def fetch(self, leaf: LeafSelection) -> FetchResult:
        primary = leaf.primary
        if isinstance(primary, RangePredicate):
            return self._fetch_range(primary)
        if isinstance(primary, EqualityPredicate):
            schema = self.catalog.schema.relation(primary.relation)
            as_range = primary.as_point_range(schema)
            if as_range is not None:
                return self._fetch_range(as_range)
            return self._fetch_equality(primary)
        # Bare scan: nothing to hash; this always costs a source access.
        self.catalog.source_accesses += 1
        rows = list(self.catalog.relation(leaf.relation).scan())
        return FetchResult(rows=rows, origin="source", coverage=1.0)

    # ------------------------------------------------------------------
    # Range selections (the paper's core path)
    # ------------------------------------------------------------------

    def _fetch_range(self, predicate: RangePredicate) -> FetchResult:
        system = self.system
        origin = system.pick_origin()
        query = predicate.range
        hashed = query
        if system.config.padding > 0:
            schema = self.catalog.schema.relation(predicate.relation)
            hashed = predicate.widen(system.config.padding, schema).range
        located = system.locate(
            hashed, predicate.relation, predicate.attribute, origin=origin
        )
        hops = located.overlay_hops
        contacted = located.peers_contacted

        best = located.best
        if best is not None and best.descriptor is not None:
            coverage = best.descriptor.containment_of(query)
            fully_answers = best.descriptor.can_answer(query)
            if fully_answers or not self.fallback_to_source:
                partition = system.fetch_rows(best, origin)
                if partition is not None:
                    return FetchResult(
                        rows=list(partition.rows),
                        origin="cache",
                        coverage=coverage if not fully_answers else 1.0,
                        overlay_hops=hops,
                        peers_contacted=contacted,
                    )

        # Cache cannot answer: compute the partition from the source and
        # store it at the identifier owners (step 5 of the procedure).
        rows = self.catalog.fetch_from_source(
            RangePredicate(predicate.relation, predicate.attribute, hashed)
        )
        partition = Partition.from_rows(
            predicate.relation, predicate.attribute, hashed, rows
        )
        if system.config.store_on_miss:
            system.store_partition(
                hashed,
                predicate.relation,
                predicate.attribute,
                partition=partition,
                origin=origin,
                identifiers=list(located.identifiers),
            )
        return FetchResult(
            rows=rows,
            origin="source+store" if system.config.store_on_miss else "source",
            coverage=1.0,
            overlay_hops=hops,
            peers_contacted=contacted,
        )

    # ------------------------------------------------------------------
    # Equality selections on string attributes (exact-match DHT keys)
    # ------------------------------------------------------------------

    def _fetch_equality(self, predicate: EqualityPredicate) -> FetchResult:
        system = self.system
        origin = system.pick_origin()
        identifier = key_id(
            predicate.relation,
            predicate.attribute,
            predicate.value,
            m=system.config.id_bits,
        )
        partition, hops = system.exact_lookup(identifier, origin=origin)
        if partition is not None:
            return FetchResult(
                rows=list(partition.rows),
                origin="cache",
                coverage=1.0,
                overlay_hops=hops,
                peers_contacted=1,
            )
        rows = self.catalog.fetch_from_source(predicate)
        # Exact-match partitions have no natural range; record the equality
        # in the descriptor via a degenerate relation-scoped tag.
        descriptor = PartitionDescriptor(
            predicate.relation,
            f"{predicate.attribute}={predicate.value!r}",
            _POINT_RANGE,
        )
        stored_partition = Partition(descriptor=descriptor, rows=tuple(rows))
        system.exact_store(identifier, descriptor, stored_partition, origin=origin)
        return FetchResult(
            rows=rows,
            origin="source+store",
            coverage=1.0,
            overlay_hops=hops,
            peers_contacted=1,
        )


# A degenerate single-value range used to tag exact-match partitions.
_POINT_RANGE = IntRange(0, 0)


@dataclass
class P2PQueryReport:
    """Everything the front end knows about one executed statement."""

    sql: str
    plan: ProjectNode
    result: QueryResultSet

    @property
    def coverage(self) -> float:
        """Lower bound on completeness (worst leaf coverage)."""
        return self.result.stats.min_coverage

    @property
    def rows(self) -> list[tuple[object, ...]]:
        """The projected result rows."""
        return self.result.rows

    def summary(self) -> str:
        """A short human-readable execution summary."""
        stats = self.result.stats
        origins = ", ".join(
            f"{rel}:{origin}" for rel, origin in sorted(stats.leaf_origins.items())
        )
        return (
            f"{len(self.result)} rows; coverage >= {self.coverage:.2f}; "
            f"hops {stats.overlay_hops}; leaves [{origins}]"
        )


class P2PDatabase:
    """SQL over the P2P range-selection system."""

    def __init__(
        self,
        catalog: Catalog,
        system: RangeSelectionSystem,
        fallback_to_source: bool = True,
    ) -> None:
        self.catalog = catalog
        self.system = system
        self.provider = CachePartitionProvider(
            catalog, system, fallback_to_source=fallback_to_source
        )
        self._statistics: dict[str, object] | None = None

    def analyze(self, n_buckets: int = 32) -> None:
        """Collect table statistics; later plans order joins by them."""
        self._statistics = self.catalog.analyze(n_buckets=n_buckets)

    def execute(self, sql: str) -> P2PQueryReport:
        """Parse, plan and execute one SELECT through the P2P cache."""
        statement = parse_select(sql)
        plan = plan_select(statement, self.catalog.schema, self._statistics)
        result = execute_plan(plan, self.catalog.schema, self.provider)
        return P2PQueryReport(sql=sql, plan=plan, result=result)

    def explain(self, sql: str) -> str:
        """The pushed-down plan for ``sql``, pretty-printed."""
        statement = parse_select(sql)
        return plan_select(statement, self.catalog.schema, self._statistics).pretty()
