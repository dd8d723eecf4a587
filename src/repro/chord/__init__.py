"""A Chord distributed-hash-table simulator (Stoica et al. 2001).

The paper stores its locality-sensitive identifiers in a Chord ring: peer
nodes hash (SHA-1 of their address) into a 32-bit circular identifier space,
each data identifier is owned by its *successor* node, and lookups route
through finger tables in ``O(log N)`` overlay hops.

This subpackage is a from-scratch reimplementation of the parts of Chord the
paper's experiments exercise: ring construction, finger tables, iterative
lookup with hop counting, and successor lists.  Membership changes are
static rebuilds: add or remove nodes, then build the ring again.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "IdSpace": "repro.chord.idspace",
    "ChordNode": "repro.chord.node",
    "ChordRing": "repro.chord.ring",
    "LookupResult": "repro.chord.lookup",
    "node_id_for_address": "repro.chord.hashing",
    "key_id": "repro.chord.hashing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
