#!/usr/bin/env python
"""Start-up gate of the CLI (``make startup-smoke``).

Runs ``repro --help`` and ``repro workloads`` under ``python -X
importtime`` and fails if either imports numpy or scipy: neither
command computes anything, so neither may load the compute stack.
``--help`` builds the parser alone, so it may not load the artifact
store, the workload registry, the program model, the cache simulator
or ``multiprocessing`` either.  Listing workloads and rendering a run
file (``repro report RUNFILE``) build no program, so neither may load
the program model or the workload builders.  A warm ``repro fig4`` (its cache
filled by one untimed cold run first) is held to the numpy rule:
every result comes from the store, so it simulates and solves
nothing.  A cold serial ``repro fig4`` may not load what it never
runs: the event recorder, the replacement policies of the reference
simulator, the Ross and greedy allocators, the run log or the process
pool.  It also runs one small CASA sweep,
which solves ILPs, and fails if that imports ``scipy.optimize``,
``scipy.sparse`` or ``scipy.linalg``: a solve reaches HiGHS through
its own binding.  On failure it prints the import chain that pulled
the library in, from the top-level import down, so a regression names
its culprit.

The same sweep must also end on one OS thread: it starts none of its
own, so any other is a BLAS worker that numpy's OpenBLAS started
because the CLI's one-BLAS-thread default did not hold.  Threads are
counted through ``/proc/self/task`` (Linux; elsewhere the check is
reported as skipped), in a child whose environment has no
``OPENBLAS_NUM_THREADS`` of the user's.

Usage: ``PYTHONPATH=src python scripts/startup_smoke.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

#: Libraries a command that computes nothing may not import.
COMPUTE_STACK = ("numpy", "scipy")

#: What building the parser may not import besides.
PARSER_ONLY = ("repro.engine.store", "repro.workloads.registry",
               "repro.program", "repro.memory.cache", "multiprocessing")

#: What a command that builds no program may not import.
PROGRAM_MODEL = ("repro.program", "repro.workloads.mediabench",
                 "repro.workloads.builder")

#: What a serial, unobserved cold CASA/Steinke exhibit never runs.
COLD_UNUSED = ("repro.obs.events", "repro.memory.replacement",
               "repro.core.ross", "repro.core.greedy_allocator",
               "repro.obs.logging", "concurrent.futures.process",
               "multiprocessing")

#: What importing HiGHS through ``scipy.optimize`` would load.
SCIPY_OPTIMIZE = ("scipy.optimize", "scipy.sparse", "scipy.linalg")

#: Stands for the cache directory of the warm exhibit.
CACHE = "{cache}"

#: A small exhibit, run once cold to fill :data:`CACHE`, then checked.
WARM_FIG4 = ("fig4", "--workload", "tiny", "--scale", "0.2",
             "--cache-dir", CACHE)

#: The run file the fill run of :data:`WARM_FIG4` writes.
RUN_FILE = CACHE + "/run.json"

#: The same exhibit cold: its own, empty cache directory.
COLD_FIG4 = ("fig4", "--workload", "tiny", "--scale", "0.2", "--jobs",
             "1", "--cache-dir", CACHE + "/cold")

#: A small sweep that solves ILPs.
CASA_SWEEP = ("sweep", "--workload", "tiny", "--scale", "0.2",
              "--algorithms", "casa", "--no-cache")

#: Each command with the libraries it may not import.
COMMANDS = (
    (("--help",), COMPUTE_STACK + PARSER_ONLY),
    (("workloads",), COMPUTE_STACK + PROGRAM_MODEL),
    (("report", RUN_FILE), PROGRAM_MODEL),
    (WARM_FIG4, COMPUTE_STACK),
    (COLD_FIG4, COLD_UNUSED),
    (CASA_SWEEP, SCIPY_OPTIMIZE),
)

#: Runs ``repro ARGV`` and reports its OS thread count on stderr.
COUNT_THREADS = """
import os, sys
import repro.cli
code = repro.cli.main(sys.argv[1:])
sys.stderr.write(f"threads={len(os.listdir('/proc/self/task'))}\\n")
sys.exit(code)
"""


def import_tree(argv: tuple[str, ...]) -> list[tuple[int, str]]:
    """``(depth, module)`` of every import ``repro ARGV`` made, in the
    order ``-X importtime`` reports them (a module after its own
    imports; top-level imports have depth 0)."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        capture_output=True, text=True, check=True,
    )
    tree = []
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or line.endswith("package"):
            continue
        name = line.rsplit("|", 1)[1]
        tree.append(((len(name) - len(name.lstrip()) - 1) // 2,
                     name.strip()))
    return tree


def chain(tree: list[tuple[int, str]], index: int) -> list[str]:
    """The modules from a top-level import down to ``tree[index]``.

    A module's importer is the next entry one level up: ``-X
    importtime`` reports each module after everything it imported.
    """
    depth, name = tree[index]
    modules = [name]
    for parent_depth, parent in tree[index + 1:]:
        if parent_depth == depth - 1:
            modules.append(parent)
            depth = parent_depth
    return modules[::-1]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="startup-smoke-") as cache:
        fill = [arg.replace(CACHE, cache)
                for arg in WARM_FIG4 + ("--trace", RUN_FILE)]
        subprocess.run([sys.executable, "-m", "repro", *fill],
                       capture_output=True, check=True)
        failed = check(cache)
    return 1 if check_threads() or failed else 0


def check(cache: str) -> int:
    """Check every command, :data:`CACHE` standing for *cache*."""
    failed = False
    for argv, forbidden in COMMANDS:
        command = " ".join(("repro",) + argv)
        argv = tuple(arg.replace(CACHE, cache) for arg in argv)
        tree = import_tree(argv)
        culprits = [index for index, (_, name) in enumerate(tree)
                    if name in forbidden]
        if not culprits:
            print(f"startup-smoke: {command}: {len(tree)} imports, "
                  f"no {' or '.join(forbidden)}")
            continue
        failed = True
        for index in culprits:
            print(f"startup-smoke: FAIL — {command} imports "
                  f"{tree[index][1]}:")
            print("  " + " -> ".join(chain(tree, index)))
    return 1 if failed else 0


def check_threads() -> bool:
    """Whether the CASA sweep ended with a thread beside its own."""
    command = " ".join(("repro",) + CASA_SWEEP)
    if not os.path.isdir("/proc/self/task"):
        print(f"startup-smoke: {command}: thread count skipped "
              "(no /proc/self/task)")
        return False
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    child = subprocess.run(
        [sys.executable, "-c", COUNT_THREADS, *CASA_SWEEP],
        capture_output=True, text=True, check=True, env=env,
    )
    threads = int(child.stderr.rsplit("threads=", 1)[1])
    if threads == 1:
        print(f"startup-smoke: {command}: ends on 1 thread, "
              "no BLAS worker")
        return False
    print(f"startup-smoke: FAIL — {command} ends on {threads} threads; "
          "the extra ones are BLAS workers (is OPENBLAS_NUM_THREADS "
          "still set before numpy loads?)")
    return True


if __name__ == "__main__":
    sys.exit(main())
