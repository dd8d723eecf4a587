"""The paper's system: approximate range selection over a Chord DHT.

:class:`RangeSelectionSystem` wires every substrate together — the LSH
identifier scheme, the Chord ring, per-peer bucket stores and the simulated
transport — and implements the query procedure of Section 4: hash the range
to ``l`` identifiers, route to the owning peers, collect each peer's best
in-bucket match, pick the overall winner, and store the new partition at
the owners when no exact match exists.

:class:`P2PDatabase` adds the relational front end: SQL in, partitions
located through the system, joins computed locally at the querying peer.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SystemConfig": "repro.core.config",
    "RangeSelectionSystem": "repro.core.system",
    "Matcher": "repro.core.matcher",
    "JaccardMatcher": "repro.core.matcher",
    "ContainmentMatcher": "repro.core.matcher",
    "matcher_by_name": "repro.core.matcher",
    "OverlayRouter": "repro.core.overlays",
    "ChordRouter": "repro.core.overlays",
    "CanRouter": "repro.core.overlays",
    "build_overlay": "repro.core.overlays",
    "AdaptiveRoutingProvider": "repro.core.stats_planner",
    "CostModel": "repro.core.stats_planner",
    "P2PDatabase": "repro.core.p2pdb",
    "P2PQueryReport": "repro.core.p2pdb",
    "AdaptivePaddingController": "repro.core.adaptive",
    "CompositeAnswer": "repro.core.composite",
    "query_composite": "repro.core.composite",
    "MultiAttributeQuery": "repro.core.multiattr",
    "MultiAttributeResult": "repro.core.multiattr",
    "query_multi_attribute": "repro.core.multiattr",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
