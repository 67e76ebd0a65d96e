"""Lazy package exports (PEP 562).

A package ``__init__`` lists its exports per defining module and binds
the two hooks this module builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.ilp.model": ("Model", "SolveStatus"),
    })

``from repro.ilp import Model`` then imports :mod:`repro.ilp.model` on
first use, not when the package is imported, so a command loads only
the modules it runs.  A resolved name is bound in the package, so each
later lookup is an ordinary attribute read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of *package*.

    Args:
        package: the package's ``__name__``.
        exports: defining module → the names it exports through
            *package*.
    """
    where = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
