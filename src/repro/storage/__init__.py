"""Per-peer partition stores.

A peer "is responsible for all hash buckets corresponding to identifiers
from the identifier of its predecessor node (excluding it) to itself"
(Section 4).  :class:`PeerStore` holds those buckets: a mapping from
identifier to the list of partitions stored under it, with optional
capacity-bounded LRU eviction (an extension — the paper assumes unbounded
caches).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Bucket": "repro.storage.bucket",
    "StoredEntry": "repro.storage.bucket",
    "PeerStore": "repro.storage.store",
    "EvictionPolicy": "repro.storage.store",
    "NoEviction": "repro.storage.store",
    "LRUEviction": "repro.storage.store",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
