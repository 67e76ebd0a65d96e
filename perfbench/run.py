"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-mpeg-cold --seed 0 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``fig4-mpeg-cold``  — ``repro fig4 --workload mpeg``, fresh cache per op
* ``sweep-mpeg-cold`` — ``repro sweep --workload mpeg --algorithms
  steinke ross``, fresh cache per op
* ``table1-warm``     — ``repro table1`` against a cache filled untimed
* ``serve-mixed``     — a fresh ``repro serve`` daemon under two
  closed-loop client connections

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable
lines come first; the last line of stdout is the JSON result.  Scratch
files live under ``.perfbench_work/`` in the checkout and are removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from clirun import run_cli_workload
from common import CLI_ARGS, ROOT, BenchError, check_tree, fresh_dir
from serveload import run_serve_workload

WORKLOADS = (*CLI_ARGS, "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_tree()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workdir = fresh_dir(ROOT / ".perfbench_work" / str(os.getpid()))
    try:
        if args.workload == "serve-mixed":
            outcome = run_serve_workload(args.seed, args.seconds,
                                         bool(args.trace), workdir)
        else:
            outcome = run_cli_workload(args.workload, args.seed,
                                       args.seconds, bool(args.trace),
                                       workdir)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    for line in outcome.lines(bool(args.trace)):
        print(line)
    print(json.dumps(outcome.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
