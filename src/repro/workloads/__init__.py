"""Workload generators.

The paper's evaluation uses "a set of 10,000 integer ranges with integers
in 0 and 1000 ... generated uniformly at random" with "only 0.2%
repetitions" (Section 5.1).  :class:`UniformRangeWorkload` reproduces that;
the skewed and clustered generators exist because real P2P query streams
are rarely uniform, and the extension experiments use them to show how the
scheme behaves when popular ranges repeat.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "RangeWorkload": "repro.workloads.generators",
    "UniformRangeWorkload": "repro.workloads.generators",
    "ZipfRangeWorkload": "repro.workloads.generators",
    "ClusteredRangeWorkload": "repro.workloads.generators",
    "WorkloadTrace": "repro.workloads.trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
