"""Set-similarity measures and their LSH admissibility (paper Section 3.2).

The paper's key theoretical observation: a similarity measure admits a
locality sensitive hash family only if its distance ``1 - sim`` satisfies
the triangle inequality (Charikar 2002).  Jaccard similarity does;
containment does not — which is why the system *hashes* with Jaccard
(min-wise permutations) and only *matches within a bucket* with containment.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "jaccard": "repro.similarity.measures",
    "containment": "repro.similarity.measures",
    "dice": "repro.similarity.measures",
    "overlap_coefficient": "repro.similarity.measures",
    "recall_of_match": "repro.similarity.measures",
    "similarity_measure": "repro.similarity.measures",
    "MEASURES": "repro.similarity.measures",
    "distance": "repro.similarity.distance",
    "satisfies_triangle_inequality": "repro.similarity.distance",
    "find_triangle_violation": "repro.similarity.distance",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
