"""Relational substrate: schemas, relations, partitions, SQL, plans.

The paper shares data "in the form of database relations": peers cache
*horizontal partitions* — the tuples of one relation matching a range
selection on one attribute.  This subpackage provides everything the
examples and the full-query front end need:

- typed schemas and in-memory relations (:mod:`repro.db.schema`,
  :mod:`repro.db.relation`);
- selection predicates and horizontal partitions (:mod:`repro.db.predicates`,
  :mod:`repro.db.partition`);
- a restricted SQL parser for the paper's query class
  (:mod:`repro.db.sql`);
- a select-pushdown planner and a local executor with hash joins
  (:mod:`repro.db.plan`) — "all the selects are moved toward the leaves",
  the "well known algebraic optimization technique" of Section 2.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AttrType": "repro.db.schema",
    "Attribute": "repro.db.schema",
    "RelationSchema": "repro.db.schema",
    "GlobalSchema": "repro.db.schema",
    "Relation": "repro.db.relation",
    "Partition": "repro.db.partition",
    "PartitionDescriptor": "repro.db.partition",
    "Predicate": "repro.db.predicates",
    "RangePredicate": "repro.db.predicates",
    "EqualityPredicate": "repro.db.predicates",
    "TruePredicate": "repro.db.predicates",
    "Catalog": "repro.db.catalog",
    "EquiWidthHistogram": "repro.db.stats",
    "TableStatistics": "repro.db.stats",
    "analyze": "repro.db.stats",
    "medical_schema": "repro.db.catalog",
    "medical_catalog": "repro.db.catalog",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
