"""The registry of permutation families, by canonical name."""

from __future__ import annotations

from repro.lsh.approx import ApproxMinWiseFamily
from repro.lsh.base import PermutationFamily
from repro.lsh.bitshuffle import MinWiseFamily
from repro.lsh.linear import LinearFamily, next_prime_above
from repro.lsh.table import TablePermutationFamily

__all__ = ["FAMILIES", "family_by_name", "family_for_domain"]

FAMILIES = {
    "min-wise": MinWiseFamily,
    "approx-min-wise": ApproxMinWiseFamily,
    "linear": LinearFamily,
    "table": TablePermutationFamily,
}


def family_by_name(name: str, **kwargs: object) -> PermutationFamily:
    """Instantiate a permutation family from its canonical name."""
    try:
        cls = FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown hash family {name!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]


def family_for_domain(name: str, domain) -> PermutationFamily:
    """Instantiate a family sized to an attribute domain.

    Linear permutations take the smallest prime above the domain maximum
    (the Broder construction); table permutations cover exactly the
    domain's code space; the bit-shuffle families are domain-independent.
    """
    if name == "linear":
        return LinearFamily(p=next_prime_above(int(domain.high)))
    if name == "table":
        return TablePermutationFamily(domain_size=int(domain.high) + 1)
    return family_by_name(name)
