"""Shared utilities: deterministic RNG streams, bit operations, statistics,
a pause for the cyclic collector.

These helpers are deliberately dependency-light; every other subpackage may
import from here, but ``repro.util`` imports nothing from the rest of the
library.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SeedSequenceFactory": "repro.util.rng",
    "derive_rng": "repro.util.rng",
    "spawn_rngs": "repro.util.rng",
    "popcount": "repro.util.bitops",
    "ones_positions": "repro.util.bitops",
    "extract_bits": "repro.util.bitops",
    "reverse_bits": "repro.util.bitops",
    "is_power_of_two": "repro.util.bitops",
    "bit_length_of_space": "repro.util.bitops",
    "random_key_with_ones": "repro.util.bitops",
    "summarize": "repro.util.stats",
    "SummaryStats": "repro.util.stats",
    "Histogram": "repro.util.stats",
    "DiscretePdf": "repro.util.stats",
    "cdf_points": "repro.util.stats",
    "gc_paused": "repro.util.collector",
    "Timer": "repro.util.timer",
    "time_call": "repro.util.timer",
    "parse_json_record": "repro.util.tolerant",
    "read_jsonl_tolerant": "repro.util.tolerant",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
