"""Structural rules: each idea in the package has one implementation.  A
rule says why, which files it scans (each glob must match one, so a stale
path cannot pass by checking nothing) and the regex no line may match, plus
a test on the parsed code where the regex is fragile."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Rule(NamedTuple):
    id: str
    why: str
    scans: tuple[str, ...]
    grep: str
    parsed: Callable[[ast.AST], bool] | None = None
    spares: str = ""


def scanned(*globs: str, spares: str = "") -> list[Path]:
    files = []
    for glob in globs:
        found = [p for p in sorted(ROOT.glob(glob)) if p.is_file() and "__pycache__" not in p.parts]
        assert found, f"{glob} matches no file"
        files += [p for p in found if not (spares and p.match(spares))]
    return files


def dispatches_on_kind(node: ast.AST) -> bool:
    """``match kind:``, or ``kind ==`` / ``!=`` however it is wrapped."""
    if isinstance(node, ast.Compare) and {type(op) for op in node.ops} & {ast.Eq, ast.NotEq}:
        return "kind" in map(ast.unparse, [node.left, *node.comparators])
    return isinstance(node, ast.Match) and ast.unparse(node.subject) == "kind"


def binds_is_alive(node: ast.AST) -> bool:
    """An ``is_alive`` argument, parameter or assignment, spaced or not."""
    if isinstance(node, (ast.keyword, ast.arg)):
        return node.arg == "is_alive"
    stored = isinstance(getattr(node, "ctx", None), ast.Store)
    return stored and "is_alive" in (getattr(node, "id", ""), getattr(node, "attr", ""))


SRC = ("src/repro/**/*.py",)
SERVICES = tuple(f"src/repro/rpc/{name}.py" for name in ("swim", "placement", "telemetry"))
LIVENESS = ("src/repro/obs/**/*.py", "src/repro/experiments/**/*.py", "src/repro/cli.py")
RULES = [
    Rule("no-stream-layer", "both ends decode through wire.FrameDecoder in a BufferedProtocol",
         ("src/repro/rpc/**/*.py",),
         r"StreamReader|StreamWriter|open_connection|start_server|readexactly"),
    Rule("one-dispatch-table", "the peer serves every kind through PeerServer.handlers",
         ("src/repro/rpc/server.py",), r"if kind ==", dispatches_on_kind),
    Rule("socket-free-services", "the services reach other members only through the core's send",
         SERVICES, r"wire\.call|Connections|create_connection|create_server"),
    Rule("one-scenario-runner", "build the run through repro.experiments.scenario",
         ("src/repro/cli.py", "src/repro/experiments/ext_*.py"),
         r"AsyncQueryEngine\(|SeededLatency\(|choice\(len\(node_ids\)|shift = 1 if"),
    Rule("one-tile-helper", "use scenario.tile_ranges (ext_live_churn keeps its remainder tile)",
         SRC, r"def _tiles", spares="src/repro/experiments/ext_live_churn.py"),
    Rule("no-copy-count", "ask ClusterClient.audit(), not a copy count",
         ("src/**/*",), r"under_replicated"),
    Rule("health-grades-with-the-audit", "grade placement with core.placement.audit_placement",
         ("src/repro/obs/health.py",), r"replica_owners\(|replica_targets\("),
    Rule("one-crash-entry-point", "crash and recover through RangeSelectionSystem",
         SRC, r"def (crash_peer|recover_peer)\b", spares="src/repro/core/system.py"),
    Rule("no-liveness-argument", "a system has one crashed set: read system.network.is_alive",
         LIVENESS, r"is_alive=", binds_is_alive),
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_rule(rule: Rule):
    found = []
    for path in scanned(*rule.scans, spares=rule.spares):
        text, name = path.read_text(errors="replace"), path.relative_to(ROOT)
        found += [f"{name}:{n}: {line.strip()}"
                  for n, line in enumerate(text.splitlines(), 1) if re.search(rule.grep, line)]
        if rule.parsed is not None:
            found += [f"{name}:{node.lineno}: {ast.unparse(node)[:80]}"
                      for node in ast.walk(ast.parse(text)) if rule.parsed(node)]
    assert not found, f"{rule.why}: {found}"


def test_one_declaration_per_flag():
    """One add_argument per flag, in its command or in the flag-group helper
    its commands call; a name with two meanings is declared once per meaning."""
    shared = {"--queries", "--trace", "--data-dir", "--repair-interval"}
    calls = Counter(
        arg.value
        for node in ast.walk(ast.parse((ROOT / "src/repro/cli.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")
    )
    assert not sorted(f for f, n in calls.items() if n > 1 and f not in shared)


def test_one_module_runs_the_request_lifecycle():
    """Breaker, adaptive timeout and backoff are consulted by one lifecycle,
    sim.policies.Request, which both clocked transports run."""
    pattern = r"\.allow\(|\.record_(failure|success)\(|adaptive\.observe\(|backoff\.delay_ms\("
    files = [p for p in scanned(*SRC) if re.search(pattern, p.read_text())]
    assert [p.relative_to(ROOT).as_posix() for p in files] == ["src/repro/sim/policies.py"]


def test_one_repair_round_executes_the_plan():
    calls = [line for p in scanned(*SRC, spares="src/repro/obs/health.py")
             for line in p.read_text().splitlines() if ".repair_plan(" in line]
    assert len(calls) <= 1, calls


def test_the_engine_network_runs_on_its_systems_faults():
    tree = ast.parse((ROOT / "src/repro/sim/query.py").read_text())
    assert any(
        isinstance(node, ast.Call) and ast.unparse(node.func) == "AsyncNetwork"
        and any(k.arg == "faults" and ast.unparse(k.value) == "system.network.faults"
                for k in node.keywords)
        for node in ast.walk(tree)
    )
