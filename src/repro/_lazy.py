"""Lazy package exports (PEP 562).

Every package ``__init__`` of :mod:`repro` names its public objects
without importing the modules that define them: ``from repro import
IntRange`` resolves ``IntRange`` on first use and caches it in the
package namespace.  What a program imports is then what it runs — a
``repro serve`` peer process never loads the SQL front end, the CAN
overlay or the workload generators (CI's import gate keeps it so), and
the packages can name each other's exports without import cycles.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``,
    whose ``exports`` map each public name to its defining module."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
