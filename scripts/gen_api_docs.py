#!/usr/bin/env python
"""Generate ``docs/API.md`` from the public API's docstrings.

The documented surface is the curated module list below — the
tutorial-facing API: the workbench pipeline, the experiment engine,
the observability layer, workload construction and the evaluation
entry points.  Output is deterministic (members sorted by name, no
timestamps), so the generated file is committed and a tier-1 test
(``tests/test_api_docs.py``) plus ``make docs`` fail when it drifts
from the docstrings.

Usage:
    python scripts/gen_api_docs.py            # rewrite docs/API.md
    python scripts/gen_api_docs.py --check    # exit 1 when stale
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "docs" / "API.md"

#: The curated public API, in presentation order.
MODULES = (
    "repro.api",
    "repro.core.pipeline",
    "repro.memory.kernel.stream",
    "repro.memory.kernel.vector",
    "repro.memory.kernel.verify",
    "repro.engine.artifacts",
    "repro.engine.store",
    "repro.engine.runner",
    "repro.engine.parallel",
    "repro.io.serde",
    "repro.serve.schema",
    "repro.serve.batching",
    "repro.serve.admission",
    "repro.serve.service",
    "repro.serve.daemon",
    "repro.serve.loadgen",
    "repro.serve.chaos",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.events",
    "repro.obs.report",
    "repro.obs.history",
    "repro.obs.logging",
    "repro.obs.profiler",
    "repro.resilience.faults",
    "repro.resilience.healing",
    "repro.resilience.chaos",
    "repro.workloads.builder",
    "repro.workloads.registry",
    "repro.evaluation.sweep",
    "repro.evaluation.fig4",
    "repro.evaluation.fig5",
    "repro.evaluation.table1",
    "repro.evaluation.dse",
)

HEADER = """\
# Public API reference

Generated from docstrings by `scripts/gen_api_docs.py` — do not edit
by hand.  Regenerate with `make docs-regen`; `make docs` (part of
`make test`) fails when this file is stale.

Modules covered (the supported, tutorial-facing surface — packages
like `repro.engine` and `repro.obs` re-export these names):
"""


def _docstring(obj) -> str:
    return (inspect.getdoc(obj) or "*(undocumented)*").rstrip()


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    for name in sorted(vars(module)):
        if name.startswith("_"):
            continue
        obj = vars(module)[name]
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


def _class_section(name: str, obj: type) -> list[str]:
    lines = [f"### class `{name}`", "", _docstring(obj), ""]
    for member_name in sorted(vars(obj)):
        if member_name.startswith("_"):
            continue
        member = vars(obj)[member_name]
        if isinstance(member, property):
            lines += [
                f"#### `{name}.{member_name}` *(property)*", "",
                _docstring(member), "",
            ]
        elif callable(member) or isinstance(
                member, (staticmethod, classmethod)):
            bound = getattr(obj, member_name)
            lines += [
                f"#### `{name}.{member_name}{_signature(bound)}`", "",
                _docstring(bound), "",
            ]
    return lines


def _module_section(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", _docstring(module), ""]
    constants = []
    for name, obj in _public_members(module):
        if inspect.isclass(obj):
            lines += _class_section(name, obj)
        elif inspect.isfunction(obj):
            lines += [
                f"### `{name}{_signature(obj)}`", "",
                _docstring(obj), "",
            ]
    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if name.startswith("_") or callable(obj) or \
                inspect.ismodule(obj):
            continue
        if name.isupper():
            if isinstance(obj, (str, int, float, tuple, frozenset)):
                constants.append(f"- `{name} = {obj!r}`")
            else:
                constants.append(
                    f"- `{name}` *({type(obj).__name__} singleton)*"
                )
    if constants:
        lines += ["### Constants", ""] + constants + [""]
    return lines


def generate() -> str:
    """Render the full API document as a string."""
    lines = [HEADER]
    lines += [f"- [`{name}`](#{name.replace('.', '')})"
              for name in MODULES]
    lines.append("")
    for module_name in MODULES:
        lines += _module_section(module_name)
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against docs/API.md instead of writing it",
    )
    args = parser.parse_args(argv)

    document = generate()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != document:
            sys.stderr.write(
                "docs/API.md is stale: regenerate it with "
                "`make docs-regen` (or scripts/gen_api_docs.py) and "
                "commit the result\n"
            )
            return 1
        print(f"docs/API.md up to date ({len(MODULES)} modules)")
        return 0
    OUTPUT.write_text(document)
    print(f"wrote {OUTPUT} ({len(document.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
