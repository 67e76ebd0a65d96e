"""HiGHS's own Python binding, loaded without :mod:`scipy.optimize`.

scipy (>= 1.15) ships HiGHS as the pybind11 module
``scipy.optimize._highspy._core``, which links only the C and C++
runtimes.  Importing it by name first runs ``scipy/optimize/__init__``,
which pulls in ``scipy.sparse`` and ``scipy.linalg``; this module loads
the extension straight from its file instead.  On a 2-CPU x86-64
container with scipy 1.17 that is about 10 ms against 0.6 s.

It registers the module in :data:`sys.modules` under its real name: a
pybind11 module cannot register its types twice, so a later ``import
scipy.optimize`` has to find and reuse this very module object (and a
module scipy already loaded is reused here).  The load runs once, at
import time, so the import lock serialises concurrent first solves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

from repro.errors import SolverError

_NAME = "scipy.optimize._highspy._core"


def _load():
    """The HiGHS binding module, loading it on first use."""
    loaded = sys.modules.get(_NAME)
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")  # runs no scipy code
    if scipy is None or not scipy.submodule_search_locations:
        raise SolverError("HiGHS needs scipy >= 1.15, which is not "
                          "installed")
    folder = os.path.join(scipy.submodule_search_locations[0],
                          "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise SolverError(f"HiGHS binding not found at {paths[0]}; "
                          "it needs scipy >= 1.15")
    loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
    spec = importlib.util.spec_from_file_location(_NAME, path,
                                                  loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module
        loader.exec_module(module)
    except ImportError as exc:
        sys.modules.pop(_NAME, None)
        raise SolverError(f"cannot load HiGHS binding {path}: {exc}") \
            from exc
    return module


core = _load()
