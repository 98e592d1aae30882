"""Lazy package re-exports (PEP 562).

A package ``__init__`` declares what it re-exports as one table, keyed by
the submodule that defines each name::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.kernel.task": ("Task", "TaskState", "SchedPolicy"),
        "repro.kernel.kernel": ("Kernel", "KernelConfig"),
    })

Importing the package then imports none of those submodules.  The first
access to a name (``repro.kernel.Kernel``, ``from repro.kernel import
Kernel`` or a star-import) imports its submodule and caches the value in
the package namespace, so later accesses are plain attribute lookups.  Any
other attribute that names a submodule imports it, as eager package
imports used to make ``import repro; repro.kernel.Kernel`` work.  A command
therefore loads only the modules it actually runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package* re-exporting, for
    every ``module: names`` row of *table*, *names* from *module*."""
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            setattr(sys.modules[package], name, value)
            return value
        # A submodule, as ``import repro; repro.kernel.Kernel`` expects
        # (importing it binds the attribute).
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return list(origin), __getattr__, __dir__
