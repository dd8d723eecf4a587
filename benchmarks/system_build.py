"""What it costs to build a system before its first query, and to hash a range.

    python benchmarks/system_build.py

Prints, best of 5 each: the hashing front (``HashedPlacement``: ``l x k``
permutations, their byte tables and the stacked arrays their interval
minima are read from) per family with the front's memory; then per ring
size the overlay (``build_overlay``: member ids + finger tables), the
whole ``RangeSelectionSystem`` and what is left of the whole once the
default family's front and the overlay are taken out — the peer wiring
(stores, peer logic, handlers, registry) plus the one collection that
follows the constructor's GC pause.  Front and overlay are timed under the
same pause the system builds them under, so the columns add up.

Last, the median cost of ``identifiers_for`` on one range per family, at
widths 1 to 10^6, in the paper's [0, 1000] domain and in [0, 2^31) — the
"any domain" evidence the end-to-end harness has no workload for.  The
``before`` column is the hashing this replaced: a sparse-table index
inside the domain (none could be built for [0, 2^31)) and a per-element
pass over the range outside it.  That code is gone, so its numbers are
constants, measured once on a 2-core Intel Xeon, Python 3.11.7, numpy
2.4.6.

Not a pytest bench and not part of ``benchmarks/e2e``: the harness there
reports the build end to end as ``setup_s`` on the in-process workloads;
this splits it by layer.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import SystemConfig  # noqa: E402
from repro.core.overlays import build_overlay  # noqa: E402
from repro.core.placement import HashedPlacement  # noqa: E402
from repro.core.system import RangeSelectionSystem  # noqa: E402
from repro.lsh.families import FAMILIES  # noqa: E402
from repro.ranges.domain import Domain  # noqa: E402
from repro.ranges.interval import IntRange  # noqa: E402
from repro.util.collector import gc_paused  # noqa: E402

RING_SIZES = (8, 1_000, 10_000)
WIDTHS = (1, 1_000, 100_000, 1_000_000)
DOMAINS = {
    "[0, 1000]": Domain("value", 0, 1000),
    "[0, 2^31)": Domain("value", 0, 2**31 - 1),
}

#: Microseconds per range before the closed form, best of three runs of
#: the same measurement (see above).
BEFORE_US = {
    ("min-wise", "[0, 1000]", 1): 6.2,
    ("min-wise", "[0, 1000]", 1_000): 6.0,
    ("min-wise", "[0, 2^31)", 1): 1_592.1,
    ("min-wise", "[0, 2^31)", 1_000): 2_497.4,
    ("min-wise", "[0, 2^31)", 100_000): 304_532.1,
    ("min-wise", "[0, 2^31)", 1_000_000): 2_318_667.4,
    ("approx-min-wise", "[0, 1000]", 1): 6.1,
    ("approx-min-wise", "[0, 1000]", 1_000): 5.9,
    ("approx-min-wise", "[0, 2^31)", 1): 1_565.6,
    ("approx-min-wise", "[0, 2^31)", 1_000): 2_307.8,
    ("approx-min-wise", "[0, 2^31)", 100_000): 110_706.7,
    ("approx-min-wise", "[0, 2^31)", 1_000_000): 2_294_399.0,
    ("linear", "[0, 1000]", 1): 6.1,
    ("linear", "[0, 1000]", 1_000): 5.8,
    ("linear", "[0, 2^31)", 1): 497.8,
    ("linear", "[0, 2^31)", 1_000): 1_035.6,
    ("linear", "[0, 2^31)", 100_000): 46_753.2,
    ("linear", "[0, 2^31)", 1_000_000): 698_536.0,
    ("table", "[0, 1000]", 1): 6.2,
    ("table", "[0, 1000]", 1_000): 5.9,
}


def best_ms(build: Callable[[], object], rounds: int = 5) -> float:
    """The fastest of ``rounds`` builds; each result is dropped before
    the next starts, so no round pays for its predecessor's garbage."""
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        built = build()
        best = min(best, perf_counter() - started)
        del built
    return best * 1e3


def front(config: SystemConfig) -> HashedPlacement:
    with gc_paused():
        return HashedPlacement(config)


def front_bytes(placement: HashedPlacement) -> int:
    """The arrays the front holds: the stack and every permutation."""
    scheme = placement.scheme
    owners = [scheme._stack] + [fn.permutation for fn in scheme.all_functions()]
    total = 0
    for owner in owners:
        for value in vars(owner).values():
            arrays = value if isinstance(value, list) else [value]
            total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return total


def overlay(config: SystemConfig) -> object:
    with gc_paused():
        return build_overlay(
            config.overlay,
            config.n_peers,
            id_bits=config.id_bits,
            dimensions=config.can_dimensions,
            seed=config.seed,
            successor_list_size=config.successor_list_size,
        )


def per_range_us(placement: HashedPlacement, width: int, budget_s: float = 0.3) -> float:
    """Median ``identifiers_for`` time over seeded ranges of ``width``
    inside the placement's domain: up to 300, at least 3, within about
    ``budget_s``."""
    domain = placement.config.domain
    rnd = random.Random(width)
    times: list[float] = []
    while len(times) < 3 or (len(times) < 300 and sum(times) < budget_s):
        start = rnd.randint(domain.low, domain.high - width + 1)
        r = IntRange(start, start + width - 1)
        started = perf_counter()
        placement.identifiers_for(r)
        times.append(perf_counter() - started)
    return median(times) * 1e6


def main() -> None:
    print(f"{'hash front':<18}{'build ms':>10}{'front MB':>10}")
    fronts = {}
    for family in FAMILIES:
        config = SystemConfig(family=family)
        fronts[family] = best_ms(lambda: front(config))
        print(f"{family:<18}{fronts[family]:>10.1f}{front_bytes(front(config)) / 1e6:>10.2f}")
    print()
    print(f"{'peers':<8}{'front ms':>10}{'overlay ms':>12}{'wiring ms':>11}{'system ms':>11}")
    default_front = fronts[SystemConfig().family]
    for n_peers in RING_SIZES:
        config = SystemConfig(n_peers=n_peers)
        ring = best_ms(lambda: overlay(config))
        whole = best_ms(lambda: RangeSelectionSystem(config))
        print(
            f"{n_peers:<8}{default_front:>10.1f}{ring:>12.1f}"
            f"{max(0.0, whole - default_front - ring):>11.1f}{whole:>11.1f}"
        )
    print()
    print(f"{'hash one range':<18}{'domain':<11}{'width':>10}{'us':>12}{'before us':>12}")
    for family in FAMILIES:
        for label, domain in DOMAINS.items():
            try:
                placement = HashedPlacement(SystemConfig(family=family, domain=domain))
            except ValueError as exc:  # the table family stops at 2^24 values
                print(f"{family:<18}{label:<11}{'—':>10}   ({exc})")
                continue
            for width in WIDTHS:
                if width > domain.size:
                    continue
                print(
                    f"{family:<18}{label:<11}{width:>10,}{per_range_us(placement, width):>12,.1f}"
                    f"{BEFORE_US[family, label, width]:>12,.1f}"
                )


if __name__ == "__main__":
    main()
