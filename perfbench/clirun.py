"""The CLI workloads: one ``repro`` process per op.

Ops run in :data:`STREAMS` streams side by side; within a stream, one
after another.  Each op gets a fresh ``--cache-dir`` (``table1-warm``:
one cache filled once, untimed, before the timed ops).  Every op's
stdout is compared with the stored expected exhibit text of its
workload and CLI seed.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import threading
import time
from pathlib import Path

import tracing
from common import (CLI_ARGS, SEED_POOL, BenchError, Child, ChildRun,
                    calibrate, expected_path, fresh_dir, mask, run_cli)
from measure import CLI_LAYERS, Outcome

#: Op streams run side by side, one per CPU of the two-CPU hosts this
#: runs on.  Besides doubling the samples per run, keeping both CPUs
#: busy with the benchmark's own ops made op times far steadier there
#: than running ops alone, whose times swung between a fast and a slow
#: mode from op to op.
STREAMS = 2


def run_cli_workload(workload: str, seed: int, seconds: float,
                     trace: bool, workdir: Path) -> Outcome:
    """Run *workload* for *seconds* on :data:`STREAMS` op streams.

    Op *k* of the run (counted across streams) runs with CLI seed
    ``(seed + k) % SEED_POOL``; ``table1-warm`` runs every op with CLI
    seed ``seed % SEED_POOL``, the one its cache was filled for.  With
    *trace*, each stream alternates traced and untraced ops, the two
    streams in opposite phase.
    """
    outcome = Outcome()
    expected = {pooled: expected_path(workload, pooled).read_text()
                for pooled in range(SEED_POOL)}
    warm_cache = None
    if workload == "table1-warm":
        warm_cache = fresh_dir(workdir / "warm-cache")
        _, cold = run_cli([*CLI_ARGS[workload], "--seed",
                           str(seed % SEED_POOL), "--cache-dir",
                           str(warm_cache)], workdir, "fill")
        outcome.check(mask(cold) == expected[seed % SEED_POOL],
                      "cold table1 output differs from the expected text")
    counter = itertools.count()
    ops: list[tuple[bool, ChildRun, str, float | None, dict | None]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    began = time.monotonic()

    def stream(slot: int) -> None:
        op = 0
        try:
            calibrations = []
            while not ops or time.monotonic() - began < seconds:
                calibrations.append(calibrate())
                traced = trace and (op + slot) % 2 == 1
                name = f"s{slot}-op{op}"
                op += 1
                with lock:
                    index = next(counter)
                cli_seed = seed % SEED_POOL if warm_cache else \
                    (seed + index) % SEED_POOL
                argv = [*CLI_ARGS[workload], "--seed", str(cli_seed)]
                cache = warm_cache or fresh_dir(workdir / f"cache-{name}")
                mark = workdir / f"mark-{name}"
                span_file = workdir / f"spans-{name}.json"
                env = {"PERFBENCH_MARK": str(mark)}
                if traced:
                    env["PERFBENCH_SPANS"] = str(span_file)
                child = Child([*argv, "--cache-dir", str(cache)], workdir,
                              name, env=env)
                run = child.wait()
                problem = ""
                if run.returncode != 0:
                    problem = f"{name}: exit {run.returncode}, " \
                              f"{child.stderr_tail()}"
                elif mask(child.stdout()) != expected[cli_seed]:
                    problem = f"{name}: output differs from expected"
                imported = spans = None
                if not problem:
                    imported = float(mark.read_text())
                    if traced:
                        spans = json.loads(span_file.read_text())
                with lock:
                    ops.append((traced, run, problem, imported, spans))
                if warm_cache is None:
                    shutil.rmtree(cache, ignore_errors=True)
            calibrations.append(calibrate())
            with lock:
                outcome.calibrations.extend(calibrations)
        except (OSError, ValueError, BenchError) as error:
            errors.append(error)

    threads = [threading.Thread(target=stream, args=(slot,))
               for slot in range(STREAMS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - began
    if errors:
        raise BenchError(f"op stream failed: {errors[0]!r}")
    walls: dict[bool, list[float]] = {False: [], True: []}
    spans = []
    for traced, run, problem, imported, payload in ops:
        outcome.check(not problem, problem)
        if problem:
            continue
        walls[traced].append(run.wall_s)
        if traced:
            spans.append((run.wall_s, payload))
            continue
        outcome.add_scaled("wall", run.wall_s)
        outcome.add_scaled("cpu", run.cpu_s)
        outcome.add_scaled("setup", imported - run.started)
        outcome.add("peak_rss_mb", run.peak_rss_mb, "MB")
    outcome.set("rps", len(walls[False]) / elapsed, "1/s",
                len(walls[False]))
    if trace:
        layers_from_ops(outcome, spans, walls)
    return outcome


def layers_from_ops(outcome: Outcome, spans, walls) -> None:
    """Per-layer metrics: median over traced ops of each op's totals."""
    per_op = []
    for wall, payload in spans:
        totals = tracing.layer_totals(payload)
        totals["untraced_s"] = wall - totals.get("covered_s", 0.0)
        per_op.append(totals)
    for name, unit in CLI_LAYERS:
        values = [totals.get(name, 0.0) for totals in per_op]
        outcome.add_layer(name, statistics.median(values), unit,
                          len(values))
    if walls[True] and walls[False]:
        outcome.add_layer("trace.overhead_s",
                          statistics.median(walls[True])
                          - statistics.median(walls[False]), "s",
                          len(walls[True]) + len(walls[False]))
