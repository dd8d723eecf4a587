"""What it costs to build a system before its first query.

    python benchmarks/system_build.py

Prints, best of 5 each: the hashing front (``HashedPlacement``: ``l x k``
permutations, their byte tables and the range-minimum index) per family
with the index's memory; then per ring size the overlay
(``build_overlay``: member ids + finger tables), the whole
``RangeSelectionSystem`` and what is left of the whole once the default
family's front and the overlay are taken out — the peer wiring (stores,
peer logic, handlers, registry) plus the one collection that follows the
constructor's GC pause.  Front and overlay are timed under the same pause
the system builds them under, so the columns add up.  Not a pytest bench
and not part of ``benchmarks/e2e``: the harness there reports the same
cost end to end as ``setup_s`` on the in-process workloads; this splits
it by layer.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import SystemConfig  # noqa: E402
from repro.core.overlays import build_overlay  # noqa: E402
from repro.core.placement import HashedPlacement  # noqa: E402
from repro.core.system import RangeSelectionSystem  # noqa: E402
from repro.lsh.accel import DomainMinHashIndex  # noqa: E402
from repro.lsh.families import FAMILIES  # noqa: E402
from repro.util.collector import gc_paused  # noqa: E402

RING_SIZES = (8, 1_000, 10_000)


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


def front(config: SystemConfig) -> object:
    with gc_paused():
        return HashedPlacement(config)


def overlay(config: SystemConfig) -> object:
    with gc_paused():
        return build_overlay(
            config.overlay,
            config.n_peers,
            id_bits=config.id_bits,
            dimensions=config.can_dimensions,
            seed=config.seed,
            successor_list_size=max(4, config.replicas),
        )


def main() -> None:
    print(f"{'hash front':<18}{'build ms':>10}{'index MB':>10}")
    fronts = {}
    for family in FAMILIES:
        config = SystemConfig(family=family)
        fronts[family] = best_ms(lambda: front(config))
        index = DomainMinHashIndex(HashedPlacement(config).scheme, config.domain)
        index_mb = index.memory_bytes() / 1e6
        print(f"{family:<18}{fronts[family]:>10.1f}{index_mb:>10.2f}")
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


if __name__ == "__main__":
    main()
