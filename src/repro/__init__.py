"""repro — Approximate Range Selection Queries in Peer-to-Peer Systems.

A full reimplementation of Gupta, Agrawal & El Abbadi (CIDR 2003): peers
cache horizontal partitions of relations; selection ranges are hashed with
locality sensitive hashing (min-wise independent permutations) into a Chord
DHT so that *similar* ranges land on the same peers, letting broad queries
be answered approximately from previously cached partitions.

Quickstart::

    from repro import IntRange, RangeSelectionSystem, SystemConfig

    system = RangeSelectionSystem(SystemConfig(n_peers=200, seed=1))
    first = system.query(IntRange(30, 50))    # cold: caches the partition
    again = system.query(IntRange(30, 49))    # similar: approximate hit
    print(again.matched, again.similarity, again.recall)

See ``examples/`` for the SQL front end and the experiment harness, and
``DESIGN.md`` for the system inventory.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    # ranges & similarity
    "IntRange": "repro.ranges.interval",
    "RangeSet": "repro.ranges.rangeset",
    "Domain": "repro.ranges.domain",
    "jaccard": "repro.similarity.measures",
    "containment": "repro.similarity.measures",
    # hashing
    "MinWiseFamily": "repro.lsh",
    "ApproxMinWiseFamily": "repro.lsh",
    "LinearFamily": "repro.lsh",
    "LSHIdentifierScheme": "repro.lsh",
    "DomainMinHashIndex": "repro.lsh",
    "family_by_name": "repro.lsh",
    # overlays
    "ChordRing": "repro.chord.ring",
    "CanOverlay": "repro.can.network",
    "OverlayRouter": "repro.core.overlays",
    "ChordRouter": "repro.core.overlays",
    "CanRouter": "repro.core.overlays",
    "build_overlay": "repro.core.overlays",
    # system
    "SystemConfig": "repro.core.config",
    "RangeSelectionSystem": "repro.core.system",
    "TimedQueryResult": "repro.rpc.engine",
    "JaccardMatcher": "repro.core.matcher",
    "ContainmentMatcher": "repro.core.matcher",
    "matcher_by_name": "repro.core.matcher",
    "AdaptivePaddingController": "repro.core.adaptive",
    "AdaptiveRoutingProvider": "repro.core.stats_planner",
    "CostModel": "repro.core.stats_planner",
    "CompositeAnswer": "repro.core.composite",
    "query_composite": "repro.core.composite",
    "MultiAttributeQuery": "repro.core.multiattr",
    "MultiAttributeResult": "repro.core.multiattr",
    "query_multi_attribute": "repro.core.multiattr",
    # database front end
    "Catalog": "repro.db.catalog",
    "medical_schema": "repro.db.catalog",
    "medical_catalog": "repro.db.catalog",
    "Partition": "repro.db.partition",
    "PartitionDescriptor": "repro.db.partition",
    "P2PDatabase": "repro.core.p2pdb",
    "P2PQueryReport": "repro.core.p2pdb",
    # persistence
    "save_system": "repro.storage.snapshot",
    "load_system": "repro.storage.snapshot",
    # workloads
    "UniformRangeWorkload": "repro.workloads.generators",
    "ZipfRangeWorkload": "repro.workloads.generators",
    "ClusteredRangeWorkload": "repro.workloads.generators",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
