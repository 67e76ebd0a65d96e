"""Write the expected CLI output of each CLI workload for some seeds.

Usage: ``python3 perfbench/make_expected.py SEED [SEED ...]``

Runs every CLI workload's command once per seed with
``--backend reference`` (the independent reference interpreter) and a
fresh cache, and stores the masked stdout under ``perfbench/expected/``.
The benchmark compares each op's output with these files; it needs one
for every seed below ``common.SEED_POOL``.  Run this again (for seeds
``0`` to ``SEED_POOL - 1``) after a change that deliberately alters an
exhibit.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from common import (CLI_ARGS, EXPECTED, ROOT, BenchError, check_tree,
                    expected_path, fresh_dir, mask, run_cli)


def reference_output(workload: str, seed: int, workdir) -> str:
    """The masked stdout of *workload* at *seed* on the reference path."""
    cache = fresh_dir(workdir / f"ref-{workload}-{seed}")
    argv = [*CLI_ARGS[workload], "--seed", str(seed),
            "--backend", "reference", "--cache-dir", str(cache)]
    _, out = run_cli(argv, workdir, f"ref-{workload}-{seed}")
    shutil.rmtree(cache, ignore_errors=True)
    return mask(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args()
    try:
        check_tree()
    except BenchError as error:
        print(f"make_expected: {error}", file=sys.stderr)
        return 2
    workdir = fresh_dir(ROOT / ".perfbench_work" / "expected")
    EXPECTED.mkdir(exist_ok=True)
    try:
        for seed in args.seeds:
            for workload in CLI_ARGS:
                text = reference_output(workload, seed, workdir)
                expected_path(workload, seed).write_text(text)
                print(f"wrote {expected_path(workload, seed).name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
