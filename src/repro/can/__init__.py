"""A CAN (Content-Addressable Network) simulator (Ratnasamy et al. 2001).

The paper names CAN alongside Chord as an equally valid DHT substrate:
"Any of the distributed hash tables (DHT), e.g., CAN [13] or Chord [14],
can be used for this purpose" (Section 3.1).  This subpackage implements
the parts the range-selection system needs: a ``d``-dimensional toroidal
coordinate space split into per-node zones, greedy coordinate routing with
hop counting (``O(d * N^(1/d))`` hops), node join by zone splitting, and
graceful departure by zone takeover.

Keys map to points by hashing the key once per dimension, so any 32-bit
bucket identifier — including the LSH identifiers — owns a deterministic
point in the space.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CanOverlay": "repro.can.network",
    "CanNode": "repro.can.node",
    "Zone": "repro.can.space",
    "Point": "repro.can.space",
    "point_for_key": "repro.can.space",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
