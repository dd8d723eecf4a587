"""The package ``__init__``s export lazily: every name still resolves, and
a peer process does not import what it never runs."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    module.name
    for module in pkgutil.iter_modules(repro.__path__, "repro.")
    if module.ispkg
)

#: What ``repro serve`` must not drag in.
NOT_FOR_PEERS = (
    "repro.can", "repro.db.sql", "repro.db.plan", "repro.workloads",
    "repro.experiments", "repro.metrics",
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_to_the_object_its_module_defines(name):
    package = importlib.import_module(name)
    assert package.__all__, name
    for export in package.__all__:
        value = getattr(package, export)
        if export == "__version__":
            continue
        defined_in = importlib.import_module(package._EXPORTS[export])
        assert value is getattr(defined_in, export), (name, export)
        # Resolved once, then an ordinary module attribute.
        assert vars(package)[export] is value
    assert set(package.__all__) <= set(dir(package))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'IntRagne'"):
        repro.IntRagne
    with pytest.raises(ImportError):
        exec("from repro import IntRagne")


def test_star_import_and_the_readme_import_still_work():
    namespace: dict = {}
    exec("from repro.ranges import *", namespace)
    assert {"IntRange", "RangeSet", "Domain"} <= set(namespace)
    exec("from repro import IntRange, RangeSelectionSystem, SystemConfig", namespace)
    from repro.core.system import RangeSelectionSystem

    assert namespace["RangeSelectionSystem"] is RangeSelectionSystem


@pytest.mark.parametrize(
    "entry",
    [
        "import repro.rpc.server",
        "import repro.cli",
        "import repro.rpc.launcher",
        # What a cluster's launcher imports before it forks every peer.
        "import repro.rpc.launcher as launcher; launcher.preload()",
    ],
)
def test_a_peer_process_imports_nothing_it_never_runs(entry):
    """In a fresh interpreter: this one has imported everything already."""
    code = (
        f"import sys; {entry}; "
        f"print([m for m in sys.modules if m.startswith({NOT_FOR_PEERS!r})])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": repro.__path__[0] + "/.."},
    )
    assert done.stdout.strip() == "[]"
