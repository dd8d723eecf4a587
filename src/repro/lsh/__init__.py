"""Locality sensitive hashing for range sets (paper Sections 3.3 and 4).

Three permutation families are provided, matching the paper's comparison:

- :class:`MinWiseFamily` — the full recursive bit-shuffle network of the
  paper's Figure 3 (``log2(width)`` shuffle iterations);
- :class:`ApproxMinWiseFamily` — only the first shuffle iteration,
  "representable with a single 32-bit integer key";
- :class:`LinearFamily` — linear permutations ``pi(x) = (a*x + b) mod p``.

A :class:`MinHash` wraps one sampled permutation and hashes a range set to
``min(pi(Q))``.  :class:`LSHIdentifierScheme` combines ``l`` groups of ``k``
min-hashes into ``l`` 32-bit identifiers via XOR, exactly as the paper's
querying-peer pseudocode does.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Permutation": "repro.lsh.base",
    "PermutationFamily": "repro.lsh.base",
    "PermutationStack": "repro.lsh.base",
    "MinHash": "repro.lsh.base",
    "BitPositionPermutation": "repro.lsh.bitshuffle",
    "BitShufflePermutation": "repro.lsh.bitshuffle",
    "MinWiseFamily": "repro.lsh.bitshuffle",
    "ApproxMinWisePermutation": "repro.lsh.approx",
    "ApproxMinWiseFamily": "repro.lsh.approx",
    "LinearPermutation": "repro.lsh.linear",
    "LinearFamily": "repro.lsh.linear",
    "TablePermutation": "repro.lsh.table",
    "TablePermutationFamily": "repro.lsh.table",
    "LSHIdentifierScheme": "repro.lsh.groups",
    "DomainMinHashIndex": "repro.lsh.groups",
    "collision_probability": "repro.lsh.theory",
    "group_match_probability": "repro.lsh.theory",
    "step_quality": "repro.lsh.theory",
    "recommend_parameters": "repro.lsh.theory",
    "FAMILIES": "repro.lsh.families",
    "family_by_name": "repro.lsh.families",
    "family_for_domain": "repro.lsh.families",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
