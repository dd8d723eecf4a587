"""Self-test of the e2e benchmark harness (not part of tier-1).

    python -m pytest benchmarks/e2e -q

Runs the real command at ``--scale tiny`` (every count divided by 50, same
code path, real peer processes) and holds its output to BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from workloads import RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Nothing fails, and tiny scale appends too little to compact a WAL.
MAY_READ_ZERO = {"driver.failed_share", "wal.compactions"}


def run(tmp_path: Path, *flags: str) -> tuple[dict, dict]:
    """Run every workload at tiny scale; the document and the last line."""
    out = tmp_path / "out.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--scale", "tiny",
         "--out", str(out), *flags],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), json.loads(done.stdout.splitlines()[-1])


def test_spec_is_consistent():
    assert SPEC["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("flag,declared", [("--trace=0", "end_to_end"), ("--trace=1", "per_layer")])
def test_every_declared_metric_is_emitted(tmp_path, flag, declared):
    document, last_line = run(tmp_path, flag)
    expected = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert document["correct"] and last_line["correct"]
    assert last_line["failed"] == 0 and last_line["attempted"] >= 1
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, section in document["workloads"].items():
        assert section["errors"] == []
        units = {key: cell["unit"] for key, cell in section["metrics"].items()}
        assert units == expected, name
        assert last_line["metrics"][name] == section["metrics"]
    if declared == "end_to_end":
        rows, bad = compare.compare(document, document, SPEC)
        assert not bad and all(row.endswith("ok") for row in rows)
        assert all(
            cell["value"] > 0
            for name, section in document["workloads"].items()
            for metric, cell in section["metrics"].items()
            # Ten distinct queries against an empty cluster match nothing.
            if (name, metric) != ("live_write_8p_durable", "recall_mean")
        )
    else:
        # A per-layer metric reads 0 only on workloads that do not
        # exercise its layer; somewhere it must have been measured.
        for metric in expected.keys() - MAY_READ_ZERO:
            assert any(
                section["metrics"][metric]["value"] != 0
                for section in document["workloads"].values()
            ), metric
    assert not list((HERE / ".work").glob("*")), "the run left files behind"


def test_compare_flags_a_regression(tmp_path):
    reference = {"traced": False, "workloads": {"w": {
        "attempted": 10, "failed": 0,
        "metrics": {m["name"]: {"value": 100.0, "unit": m["unit"]} for m in SPEC["end_to_end"]},
    }}}
    worse = json.loads(json.dumps(reference))
    worse["workloads"]["w"]["metrics"]["qps"]["value"] = 50.0
    rows, bad = compare.compare(reference, worse, SPEC)
    assert bad and sum(row.endswith("regressed") for row in rows) == 1
    failing = json.loads(json.dumps(reference))
    failing["workloads"]["w"]["failed"] = 1
    assert compare.compare(reference, failing, SPEC)[1]
    assert not compare.compare(reference, reference, SPEC)[1]
