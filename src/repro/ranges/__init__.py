"""Integer range algebra.

A selection predicate ``start <= attr <= end`` over an integer-ordered
attribute defines a *closed interval* of domain values; the paper treats that
interval as the set ``{start, ..., end}``.  :class:`IntRange` models the
interval with closed-form set arithmetic (no materialization), and
:class:`RangeSet` models unions of disjoint intervals, which arise from
multi-predicate selections and from measuring how much of a query several
cached partitions jointly cover.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "IntRange": "repro.ranges.interval",
    "RangeSet": "repro.ranges.rangeset",
    "Domain": "repro.ranges.domain",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
