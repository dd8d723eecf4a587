"""The end-to-end + per-layer benchmark: one command, three transports.

    python3 benchmarks/e2e/run.py --seed 1                      # all workloads, end-to-end
    python3 benchmarks/e2e/run.py --seed 1 --traced             # all workloads, per-layer
    python3 benchmarks/e2e/run.py --seed 1 --workload sim_10k --out sim.json

Prints every metric by name with its unit, runs the correctness checks,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; exits non-zero when a check fails.  ``BENCHMARK.json`` at
the repository root names the metrics, their units and bounds; the README
beside this file defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = HERE / ".work"


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="seeds the generated ranges, and nothing else")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="scales the timed query counts (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny divides every count by 50 (harness self-test)")
    parser.add_argument("--out", type=Path, help="write the full JSON document here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def with_units(values: dict[str, float], declared: list[dict], errors: list[str]) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric, in the
    declared order.  A per-layer metric the workload does not exercise
    reads 0; a value nobody declared is a harness bug."""
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        errors.append(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import measure, trace
    from workloads import WORKLOADS, Sandbox

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = args.workload or list(WORKLOADS)
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "box": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    sandbox = Sandbox(WORK_DIR)
    # A terminated run must unwind through the same finally blocks as a
    # Ctrl-C, or its peer processes and data roots would survive it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        for name in names:
            section = (trace if args.trace else measure)(
                WORKLOADS[name], args.seed, args.seconds,
                50 if args.scale == "tiny" else 1, sandbox,
            )
            section["metrics"] = with_units(section["metrics"], declared, section["errors"])
            document["workloads"][name] = section
            print(f"{name}: {section['counts']} queries/repetition, "
                  f"{section['attempted']} attempted, {section['failed']} failed")
            for metric, cell in section["metrics"].items():
                print(f"  {metric:34s} {cell['value']:16.4f} {cell['unit']}")
            for error in section["errors"]:
                print(f"  CHECK FAILED: {error}")
    finally:
        sandbox.close()
    leaks = sandbox.leaks()
    for leak in leaks:
        print(f"CHECK FAILED: {leak}")
    sections = document["workloads"].values()
    document["correct"] = not leaks and not any(s["errors"] for s in sections)
    if args.out is not None:
        # Indented, but with every array of plain values (a sampled span,
        # above all) on one line.
        text = re.sub(
            r"\[\s+([^\[\]{}]*?)\s+\]",
            lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]",
            json.dumps(document, indent=1),
        )
        args.out.write_text(text + "\n", encoding="utf-8")
    metrics = {name: s["metrics"] for name, s in document["workloads"].items()}
    print(json.dumps({
        "correct": document["correct"],
        "attempted": sum(s["attempted"] for s in sections),
        "failed": sum(s["failed"] for s in sections),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
