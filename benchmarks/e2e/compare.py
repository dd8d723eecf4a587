"""Compare two benchmark documents against the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the reference (the parent commit, or the committed baseline),
``B`` the candidate; both are ``run.py --out`` documents.  One row per
(workload, end-to-end metric): ``regressed`` when B is worse than A by
more than the metric's bound, ``improved`` when it is better by more than
the bound, ``ok`` otherwise.  Exits non-zero on any regression, on any
rise in failed queries, or when B lacks a workload A has.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(reference: float, candidate: float, better: str, bound: float) -> tuple[str, float]:
    """``(status, change)``; ``change`` is the share of the reference by
    which the candidate got *worse* (negative: it got better)."""
    if reference == 0:  # e.g. recall at --scale tiny: nothing cached yet
        change = 0.0 if candidate == 0 else math.copysign(math.inf, candidate)
    else:
        change = (candidate - reference) / reference
    if better == "higher":
        change = -change
    if change > bound:
        return "regressed", change
    if change < -bound:
        return "improved", change
    return "ok", change


def compare(reference: dict, candidate: dict, spec: dict) -> tuple[list[str], bool]:
    """Report rows and whether anything regressed."""
    rows = []
    bad = False
    for name, ref in reference["workloads"].items():
        cand = candidate["workloads"].get(name)
        if cand is None:
            rows.append(f"{name:24s} missing from the candidate")
            bad = True
            continue
        if cand["failed"] * ref["attempted"] > ref["failed"] * cand["attempted"]:
            rows.append(
                f"{name:24s} failed {ref['failed']}/{ref['attempted']} -> "
                f"{cand['failed']}/{cand['attempted']}  regressed"
            )
            bad = True
        for metric in spec["end_to_end"]:
            key = metric["name"]
            before = ref["metrics"][key]["value"]
            after = cand["metrics"][key]["value"]
            status, change = verdict(before, after, metric["better"], metric["bound"])
            bad |= status == "regressed"
            rows.append(
                f"{name:24s} {key:16s} {before:12.4f} -> {after:12.4f} "
                f"{metric['unit']:15s} worse by {change:+7.1%} "
                f"(bound {metric['bound']:.0%})  {status}"
            )
    return rows, bad


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    reference, candidate = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in args
    )
    if reference["traced"] or candidate["traced"]:
        print("error: bounds apply to end-to-end documents (--trace 0)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    rows, bad = compare(reference, candidate, spec)
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
