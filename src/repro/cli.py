"""Command-line interface: ``python -m repro <command>`` or ``casa``.

Commands:

* ``fig4`` / ``fig5`` / ``table1`` — regenerate the paper's exhibits;
* ``sweep`` — free-form size sweep of any workload/allocators;
* ``graph`` — dump a workload's conflict graph as Graphviz DOT;
* ``cache`` — artifact-cache maintenance (``stats`` / ``clear``);
* ``report`` — all exhibits as one document, or (given a ``--trace``
  file) a per-run report of stage timings and cache hit rates;
* ``audit`` — replay recorded cache events against the conflict graph
  (the ``m_ij`` correctness oracle);
* ``verify-kernel`` — differentially verify the vectorized simulation
  kernel against the reference simulator (non-zero exit on any
  difference);
* ``verify-grid`` — differentially verify the single-pass grid replay
  against per-configuration simulation, and a vector-backend sweep
  against a reference-backend sweep: bit-identical reports and
  allocations or non-zero exit;
* ``bench`` — benchmark regression tracking (``record`` a metric
  snapshot / ``compare`` against a committed baseline, non-zero exit
  on regression);
* ``chaos`` — chaos differential gate: run a sweep under an injected
  fault plan (``--faults`` / ``$CASA_FAULTS``) through the
  self-healing layer and assert bit-identical results versus the
  fault-free run (non-zero exit on divergence, silent plans, or too
  few retries — see ``docs/ROBUSTNESS.md``);
* ``serve`` — run the long-running allocation daemon (HTTP/JSON wire
  API over the Session verbs, micro-batched solves, multi-tenant
  artifact stores, ``/healthz`` + ``/metrics`` — see
  ``docs/SERVING.md``);
* ``workloads`` — list registered benchmarks.

Every experiment command consults the engine's content-addressed
artifact cache (on disk under ``--cache-dir``, default ``.casa_cache``
or ``$CASA_CACHE_DIR``); ``--no-cache`` disables the disk tier and
``--jobs N`` fans sweep work units across worker processes, and
``--backend`` selects the simulation backend (``reference`` |
``vector`` | ``auto``).  The
sweep-shaped commands (``sweep``, ``fig4``, ``fig5``, ``table1``,
``dse``) schedule one work unit per allocator covering its whole
capacity axis and additionally
accept ``--trace FILE`` (record a Chrome-trace
run file, viewable in ``chrome://tracing`` / Perfetto and readable by
``report``), ``--metrics`` (print the run's metric counters),
``--events`` (record the cache eviction/miss event stream and print
its set-pressure summary), ``--log FILE`` (run_id-correlated
structured JSON log) and ``--profile-sample FILE`` (collapsed-stack
sampling profile) — see ``docs/OBSERVABILITY.md``.

Only what builds the parser is imported at the top of this module:
argparse, :mod:`repro.errors` and the :mod:`repro.engine` package
(whose ``__init__`` defines ``CACHE_DIR_ENV`` and loads nothing else).
The parser spells out the workload
and replacement-policy names (:data:`WORKLOADS`, :data:`POLICIES`; a
test holds them equal to the registries) instead of importing the
registries, which would load the program model, the cache simulator
and the artifact store.  Each command imports the modules it runs
when it is dispatched, so ``--help`` starts on the parser alone and
``workloads`` and ``cache`` start without numpy or the allocators.

A CLI process runs numpy on one BLAS thread: the program makes no BLAS
call, and OpenBLAS would otherwise start a worker per extra CPU when
numpy loads, which spins on CPU the run never uses.  The default is
set here, before anything can load numpy, and inherited by the serve
daemon and the ``--jobs`` pool workers; a thread count the user set
wins, and ``import repro`` alone changes no environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable

# One BLAS thread (see above), before any import below can load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.engine import CACHE_DIR_ENV
from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:
    from repro.api import Session
    from repro.engine.runner import RunRecord
    from repro.engine.store import ArtifactStore
    from repro.resilience.healing import RetryPolicy
    from repro.serve.service import ServiceConfig

#: The registered workloads (:func:`repro.workloads.available_workloads`).
WORKLOADS = ("adpcm", "g721", "mpeg", "jpeg", "epic", "tiny")

#: The cache replacement policies
#: (:func:`repro.memory.replacement.available_policies`).
POLICIES = ("2q", "arc", "fifo", "lfu", "lru", "opt", "random")


def _default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or ".casa_cache"


def _session(args: argparse.Namespace) -> Session:
    """The command's workload/scale/seed/backend as one Session."""
    from repro.api import Session

    return Session(args.workload, scale=args.scale, seed=args.seed,
                   backend=args.backend)


def _add_scale(parser: argparse.ArgumentParser,
               jobs: bool = False) -> None:
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="outer-loop trip-count multiplier (default 1.0)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="executor seed for probabilistic branches (default 0)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache directory (default .casa_cache, or "
             f"${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk artifact cache",
    )
    parser.add_argument(
        "--backend", default=None,
        choices=("reference", "vector", "auto"),
        help="simulation backend (default: $CASA_BACKEND, then "
             "'auto' = the vectorized kernel whenever it can replay "
             "the run exactly)",
    )
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the sweep's work units, one "
                 "per allocator (default 1 = serial; results are "
                 "identical)",
        )
        parser.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record a Chrome-trace run file (open in "
                 "chrome://tracing or Perfetto; feed to "
                 "'report FILE')",
        )
        parser.add_argument(
            "--metrics", action="store_true",
            help="print the run's metric counters (cache statistics, "
                 "solver work, engine stages)",
        )
        parser.add_argument(
            "--events", action="store_true",
            help="record the cache eviction/miss event stream and "
                 "print its totals and set-pressure histogram (only "
                 "simulations actually run emit events; a warm "
                 "artifact cache serves results without simulating)",
        )
        parser.add_argument(
            "--log", metavar="FILE", default=None,
            help="append structured JSON log events (run_id-"
                 "correlated engine stages, retries, chaos passes) "
                 "to FILE",
        )
        parser.add_argument(
            "--profile-sample", metavar="FILE", default=None,
            help="sample the main thread's wall-clock stacks while "
                 "the command runs and write a collapsed-stack "
                 "profile (flamegraph.pl / speedscope input) to FILE",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casa",
        description="Cache-Aware Scratchpad Allocation (DATE 2004) "
                    "reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig4 = sub.add_parser("fig4", help="CASA vs. Steinke (figure 4)")
    fig4.add_argument("--workload", default="mpeg",
                      choices=WORKLOADS)
    fig4.add_argument("--chart", action="store_true",
                      help="render as grouped bars")
    _add_scale(fig4, jobs=True)

    fig5 = sub.add_parser("fig5",
                          help="scratchpad vs. loop cache (figure 5)")
    fig5.add_argument("--workload", default="mpeg",
                      choices=WORKLOADS)
    fig5.add_argument("--chart", action="store_true",
                      help="render as grouped bars")
    _add_scale(fig5, jobs=True)

    table1 = sub.add_parser("table1", help="overall savings (table 1)")
    _add_scale(table1, jobs=True)

    sweep = sub.add_parser("sweep", help="free-form size sweep")
    sweep.add_argument("--workload", default="mpeg",
                       choices=WORKLOADS)
    sweep.add_argument("--sizes", type=int, nargs="+", default=None,
                       help="scratchpad sizes in bytes")
    sweep.add_argument(
        "--algorithms", nargs="+",
        default=["casa", "steinke", "ross"],
        choices=["casa", "steinke", "greedy", "ross"],
    )
    sweep.add_argument(
        "--explain", action="store_true",
        help="after the table, justify the CASA allocation at the "
             "largest swept size object by object",
    )
    _add_scale(sweep, jobs=True)

    graph = sub.add_parser("graph", help="dump the conflict graph (DOT)")
    graph.add_argument("--workload", default="mpeg",
                       choices=WORKLOADS)
    _add_scale(graph)

    overlay = sub.add_parser(
        "overlay",
        help="static CASA vs. overlay (the paper's future work)",
    )
    overlay.add_argument("--workload", default="jpeg",
                         choices=WORKLOADS)
    overlay.add_argument("--spm-size", type=int, default=128)
    _add_scale(overlay)

    pressure = sub.add_parser(
        "pressure", help="show the most contended cache sets"
    )
    pressure.add_argument("--workload", default="adpcm",
                          choices=WORKLOADS)
    pressure.add_argument("--top", type=int, default=10)
    _add_scale(pressure)

    wcet = sub.add_parser(
        "wcet", help="WCET bound with and without the scratchpad"
    )
    wcet.add_argument("--workload", default="adpcm",
                      choices=WORKLOADS)
    wcet.add_argument("--spm-size", type=int, default=128)
    _add_scale(wcet)

    dse = sub.add_parser(
        "dse",
        help="best cache/scratchpad split under an area budget",
    )
    dse.add_argument("--workload", default="adpcm",
                     choices=WORKLOADS)
    dse.add_argument("--budget", type=float, default=30_000.0,
                     help="on-chip area budget (model units)")
    dse.add_argument("--top", type=int, default=8)
    dse.add_argument(
        "--policies", nargs="+", default=None,
        choices=POLICIES, metavar="POLICY",
        help="open the replacement-policy axis: cross these policies "
             f"({', '.join(POLICIES)}) with the cache "
             "sizes and report each point against the Belady (opt) "
             "miss floor of its own layout — see docs/POLICIES.md",
    )
    dse.add_argument(
        "--assoc", type=int, default=1,
        help="associativity of every explored cache (default 1 = "
             "direct mapped, where all policies collapse; raise it "
             "to make --policies meaningful)",
    )
    _add_scale(dse, jobs=True)

    explain = sub.add_parser(
        "explain",
        help="justify a CASA allocation object by object",
    )
    explain.add_argument("--workload", default="adpcm",
                         choices=WORKLOADS)
    explain.add_argument("--spm-size", type=int, default=128)
    _add_scale(explain)

    report = sub.add_parser(
        "report",
        help="run every exhibit and print one document, or render a "
             "per-run report from a --trace file",
    )
    report.add_argument(
        "run", nargs="?", default=None, metavar="RUNFILE",
        help="a --trace run file; renders its stage timings, cache "
             "hit rates and slowest design points instead of "
             "re-running the exhibits",
    )
    report.add_argument("--output", default=None,
                        help="also write the report to this file")
    report.add_argument("--no-charts", action="store_true")
    report.add_argument("--json", action="store_true",
                        help="with RUNFILE: print the report as JSON")
    report.add_argument("--top", type=int, default=10,
                        help="with RUNFILE: how many slowest design "
                             "points to list (default 10)")
    _add_scale(report)

    audit = sub.add_parser(
        "audit",
        help="replay cache events against the conflict graph (the "
             "m_ij correctness oracle); non-zero exit on mismatch",
    )
    audit.add_argument("--workload", default="adpcm",
                       choices=WORKLOADS)
    audit.add_argument("--top", type=int, default=8,
                       help="hottest cache sets to list (default 8)")
    audit.add_argument(
        "--policy", default=None, choices=POLICIES,
        help="replace the workload's cache policy before auditing "
             "(the m_ij re-derivation is policy-agnostic, so the "
             "audit must pass under every policy)",
    )
    audit.add_argument(
        "--assoc", type=int, default=None,
        help="replace the workload's cache associativity before "
             "auditing (the paper's caches are mostly direct mapped, "
             "where every policy collapses)",
    )
    _add_scale(audit)

    verify = sub.add_parser(
        "verify-kernel",
        help="differentially verify the vector kernel against the "
             "reference simulator; non-zero exit on any difference",
    )
    verify.add_argument(
        "--workloads", nargs="+", default=None,
        choices=WORKLOADS, metavar="WORKLOAD",
        help="workloads of the end-to-end, loop-cache and audit "
             "checks (default: tiny adpcm)",
    )
    verify.add_argument(
        "--trials", type=int, default=50,
        help="randomized probe-level trials (default 50)",
    )
    _add_scale(verify)

    verify_grid = sub.add_parser(
        "verify-grid",
        help="differentially verify single-pass grid replay against "
             "per-configuration simulation, and a vector-backend "
             "sweep against a reference-backend sweep (bit-identical "
             "reports and allocations); non-zero exit on any "
             "divergence or zero-coverage grid",
    )
    verify_grid.add_argument(
        "--workloads", nargs="+", default=None,
        choices=WORKLOADS, metavar="WORKLOAD",
        help="workloads of the sweep-level checks (default: tiny "
             "adpcm)",
    )
    _add_scale(verify_grid)

    bench = sub.add_parser(
        "bench",
        help="benchmark regression tracking: record a metric snapshot "
             "or compare against a baseline (non-zero exit on "
             "regression)",
    )
    bench.add_argument("action", choices=("record", "compare"))
    bench.add_argument(
        "--history", default=None, metavar="FILE",
        help="JSONL history file — record appends to it (default "
             "benchmarks/history.jsonl); compare reads its last "
             "snapshot instead of re-running the suite",
    )
    bench.add_argument(
        "--baseline", default="benchmarks/baselines/smoke.jsonl",
        metavar="FILE",
        help="baseline history whose last snapshot compare checks "
             "against (default benchmarks/baselines/smoke.jsonl)",
    )
    bench.add_argument("--name", default="smoke",
                       help="snapshot name (default smoke)")
    bench.add_argument("--note", default="",
                       help="free-form note stored with the snapshot")
    bench.add_argument(
        "--workloads", nargs="+", default=None,
        choices=WORKLOADS, metavar="WORKLOAD",
        help="suite workloads (default: the smoke suite)",
    )
    bench.add_argument("--scale", type=float, default=None,
                       help="suite trip-count multiplier "
                            "(default: the smoke suite's)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--timing-tolerance", type=float, default=None,
        help="relative tolerance for timing metrics (default 5.0 = "
             "within 5x either way; deterministic metrics always "
             "match exactly)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a sweep under an injected fault plan and assert "
             "bit-identical results vs. the fault-free run; non-zero "
             "exit on divergence",
    )
    chaos.add_argument("--workload", default="tiny",
                       choices=WORKLOADS)
    chaos.add_argument("--sizes", type=int, nargs="+", default=None,
                       help="scratchpad sizes in bytes (default 64 128)")
    chaos.add_argument(
        "--algorithms", nargs="+",
        default=["casa", "steinke"],
        choices=["casa", "steinke", "greedy", "ross"],
    )
    chaos.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault plan, e.g. 'store.read:error@nth=1;"
             "worker.exec:crash@nth=2' (default: $CASA_FAULTS)",
    )
    chaos.add_argument(
        "--max-attempts", type=int, default=None,
        help="retry budget per work unit, i.e. per allocator's "
             "whole capacity axis (default: the retry policy's, 3)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=None,
        help="evaluation timeout per work unit, i.e. per "
             "allocator's whole capacity axis, in seconds "
             "(default none)",
    )
    chaos.add_argument(
        "--min-retries", type=int, default=0,
        help="fail unless the healing layer retried at least this "
             "many times (proves the plan actually bit; default 0)",
    )
    _add_scale(chaos, jobs=True)

    serve = sub.add_parser(
        "serve",
        help="run the allocation daemon (HTTP/JSON; see "
             "docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default loopback)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default 8787)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes for multi-chunk "
                            "batches (default 1)")
    serve.add_argument(
        "--store-backend", default="memory", metavar="SPEC",
        help="tenant-store backend spec: 'memory[:bytes]' or "
             "'disk[:root]' (default memory)",
    )
    serve.add_argument(
        "--stall-timeout", type=float, default=None,
        help="seconds the executor may spend on one unit before "
             "/healthz reports 503 (default: the service's, 30)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=None,
        help="retry budget per work unit (default: the service's, 3)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-work-unit evaluation timeout in seconds "
             "(default none)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan for chaos testing the daemon",
    )
    serve.add_argument(
        "--log", default=None, metavar="FILE",
        help="append run_id-correlated structured JSON events to FILE",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission bound on concurrently admitted requests; "
             "excess sheds with a structured 503, <= 0 unbounded "
             "(default: the service's, 64)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=1 << 20,
        help="refuse request bodies above this size with a "
             "structured 400 (default 1 MiB)",
    )
    serve.add_argument(
        "--client-timeout", type=float, default=30.0,
        help="bound on each read from a client; slower clients are "
             "disconnected (default 30, <= 0 unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds in-flight requests get to finish after "
             "SIGTERM/SIGINT (default 10)",
    )

    serve_chaos = sub.add_parser(
        "serve-chaos",
        help="chaos-test a real daemon subprocess: overload, "
             "adversarial clients and SIGTERM drain "
             "(see docs/SERVING.md)",
    )
    serve_chaos.add_argument(
        "--workload", default="tiny",
        help="workload every request names (default tiny)")
    serve_chaos.add_argument(
        "--scale", type=float, default=0.2,
        help="trip-count multiplier (default 0.2)")
    serve_chaos.add_argument(
        "--requests", type=int, default=48,
        help="overload-phase request count (default 48)")
    serve_chaos.add_argument(
        "--max-inflight", type=int, default=4,
        help="the gate daemon's admission limit; the overload phase "
             "runs twice as many workers (default 4)")
    serve_chaos.add_argument(
        "--p99-limit", type=float, default=2.0,
        help="bound on accepted-request p99 under overload, in "
             "seconds (default 2.0)")
    serve_chaos.add_argument(
        "--adversarial-count", type=int, default=3,
        help="connections per adversarial client mode (default 3)")
    serve_chaos.add_argument(
        "--show-output", action="store_true",
        help="print the daemon subprocess's combined output")

    cache = sub.add_parser(
        "cache", help="artifact-cache maintenance"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir", default=None,
        help="artifact-cache directory (default .casa_cache, or "
             f"${CACHE_DIR_ENV})",
    )

    sub.add_parser("workloads", help="list registered benchmarks")
    return parser


def _configure_store(args: argparse.Namespace) -> ArtifactStore:
    """Install the process-wide store the parsed flags ask for."""
    from repro.engine.store import ArtifactStore, set_default_store

    if getattr(args, "no_cache", False):
        store = ArtifactStore()
    else:
        cache_dir = getattr(args, "cache_dir", None) \
            or _default_cache_dir()
        store = ArtifactStore(cache_dir=cache_dir)
    set_default_store(store)
    return store


def _run_cache_command(args: argparse.Namespace) -> int:
    """``casa cache stats`` / ``casa cache clear``."""
    from repro.engine.store import ArtifactStore

    store = ArtifactStore(
        cache_dir=args.cache_dir or _default_cache_dir()
    )
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached artifacts from "
              f"{store.cache_dir}")
        return 0
    entries = store.disk_entries()
    count, total_bytes = store.disk_usage()
    print(f"cache dir : {store.cache_dir}")
    print(f"artifacts : {count}")
    print(f"bytes     : {total_bytes}")
    per_stage: dict[str, int] = {}
    for path in entries:
        stage = path.name.split("-", 1)[0]
        per_stage[stage] = per_stage.get(stage, 0) + 1
    for stage in sorted(per_stage):
        print(f"  {stage}: {per_stage[stage]}")
    return 0


def _run_observed(args: argparse.Namespace,
                  run: Callable[[RunRecord], int]) -> int:
    """Run a sweep-shaped command under the requested observability.

    Installs a trace collector (``--trace FILE``), a metrics registry
    (``--metrics``, implied by ``--trace`` so the run file is
    self-describing) and/or a cache event recorder (``--events``),
    invokes *run* with a fresh :class:`RunRecord`, restores the
    previous observability state, then prints the metric table /
    event summary and/or writes the run file.

    ``--log`` opens a run_id-correlated structured log and
    ``--profile-sample`` runs the sampling profiler around the whole
    command.  None of this changes the run's deterministic outputs.
    The event recorder and the run log load only when asked for.
    """
    from repro import obs
    from repro.engine.runner import RunRecord
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.obs.trace import TraceCollector, set_collector

    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    want_events = getattr(args, "events", False)
    log_path = getattr(args, "log", None)
    profile_path = getattr(args, "profile_sample", None)

    collector = TraceCollector() if trace_path else None
    registry = MetricsRegistry() \
        if (want_metrics or collector is not None) else None
    recorder = None
    if want_events:
        from repro.obs.events import EventRecorder, set_recorder
        recorder = EventRecorder()
    record = RunRecord()

    run_id = run_log = None
    if log_path or profile_path or trace_path:
        from repro.obs.logging import RunLog, new_run_id
        run_id = new_run_id()
        run_log = RunLog(log_path, run_id=run_id) if log_path else None
    run_logs = obs.loaded("logging")
    profiler = None
    if profile_path:
        from repro.obs.profiler import SamplingProfiler
        profiler = SamplingProfiler()

    previous_collector = set_collector(collector) \
        if collector is not None else None
    previous_registry = set_registry(registry) \
        if registry is not None else None
    previous_recorder = set_recorder(recorder) \
        if recorder is not None else None
    previous_log = run_logs.set_run_log(run_log) \
        if run_log is not None else None
    if run_logs is not None:
        run_logs.log_event("run.start", command=args.command,
                           argv=getattr(args, "_argv", None))
    if profiler is not None:
        profiler.start()
    try:
        code = run(record)
    finally:
        if profiler is not None:
            profiler.stop()
        if run_logs is not None:
            run_logs.log_event("run.done", command=args.command)
        if run_log is not None:
            run_logs.set_run_log(previous_log)
            run_log.close()
        if collector is not None:
            set_collector(previous_collector)
        if registry is not None:
            set_registry(previous_registry)
        if recorder is not None:
            set_recorder(previous_recorder)
    if recorder is not None:
        print(recorder.render())
    if registry is not None:
        # Fold the run's per-stage counters in, so ``--metrics`` and
        # the run file expose the engine.stage.* numbers too.
        registry.merge(record.metrics.snapshot())
    if want_metrics and registry is not None:
        print(registry.render())
    if profiler is not None and profile_path:
        profiler.write(profile_path)
        print(f"profile written to {profile_path} "
              f"({profiler.sample_count} samples, "
              f"{len(profiler.samples)} stacks)")
    if log_path:
        print(f"log written to {log_path} (run id {run_id})")
    if collector is not None and trace_path:
        from repro.obs.report import build_run_payload, write_run_file
        payload = build_run_payload(
            command=args.command,
            collector=collector,
            record=record,
            registry=registry,
            argv=getattr(args, "_argv", None),
            run_id=run_id,
            profile=profiler.stats() if profiler is not None else None,
        )
        write_run_file(trace_path, payload)
        print(f"trace written to {trace_path} "
              f"({len(payload['traceEvents'])} spans); inspect with "
              f"'report {trace_path}' or chrome://tracing")
    return code


def _run_bench_command(args: argparse.Namespace) -> int:
    """``casa bench record`` / ``casa bench compare``.

    ``record`` runs the benchmark suite and appends the metric
    snapshot to ``--history``.  ``compare`` takes the latest snapshot
    (from ``--history`` if given, else by running the suite fresh) and
    checks it against the last snapshot of ``--baseline``:
    deterministic metrics must match exactly, timing metrics get a
    relative tolerance band, and any regression makes the exit code
    non-zero so ``make bench-smoke`` can gate on it.

    The suite always runs on a fresh in-memory artifact store, so the
    recorded numbers measure real simulations and solves, never cache
    hits.
    """
    from repro.obs.history import (
        ComparePolicy,
        DEFAULT_SUITE_SCALE,
        DEFAULT_SUITE_WORKLOADS,
        collect_suite_metrics,
        compare_snapshots,
        load_history,
        record_suite,
    )

    workloads = tuple(args.workloads) if args.workloads \
        else DEFAULT_SUITE_WORKLOADS
    scale = args.scale if args.scale is not None \
        else DEFAULT_SUITE_SCALE

    if args.action == "record":
        history = args.history or "benchmarks/history.jsonl"
        snapshot = record_suite(
            history, name=args.name, workloads=workloads,
            scale=scale, seed=args.seed, note=args.note,
        )
        print(f"recorded snapshot {snapshot.name!r} "
              f"({len(snapshot.metrics)} metrics) to {history}")
        for metric in sorted(snapshot.metrics):
            print(f"  {metric} = {snapshot.metrics[metric]}")
        return 0

    baseline = load_history(args.baseline)[-1]
    if args.history:
        latest = load_history(args.history)[-1]
    else:
        from repro.obs.history import Snapshot, machine_fingerprint
        latest = Snapshot(
            name=args.name,
            metrics=collect_suite_metrics(workloads, scale,
                                          seed=args.seed),
            fingerprint=machine_fingerprint(),
            config={"workloads": list(workloads), "scale": scale,
                    "seed": args.seed},
        )
    policy = ComparePolicy() if args.timing_tolerance is None \
        else ComparePolicy(timing_tolerance=args.timing_tolerance)
    result = compare_snapshots(baseline, latest, policy=policy)
    print(result.render())
    return 0 if result.ok else 1


def _serve_config(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`~repro.serve.service.ServiceConfig` of ``casa serve``.

    An option left unset keeps the config's own default.
    """
    from repro.serve import ServiceConfig

    return ServiceConfig(
        jobs=args.jobs,
        store_backend=args.store_backend,
        retry=_retry_policy(args),
        fault_spec=args.faults or os.environ.get("CASA_FAULTS"),
        log_path=args.log,
        **_given(stall_timeout=args.stall_timeout,
                 max_inflight=args.max_inflight),
    )


def _retry_policy(args: argparse.Namespace) -> "RetryPolicy":
    """The :class:`~repro.resilience.healing.RetryPolicy` of
    ``--max-attempts`` / ``--timeout``; an option left unset keeps the
    policy's own default."""
    from repro.resilience.healing import RetryPolicy

    return RetryPolicy(**_given(max_attempts=args.max_attempts,
                                timeout_s=args.timeout))


def _given(**options: object) -> dict[str, object]:
    """The *options* the command line set (those not ``None``)."""
    return {name: value for name, value in options.items()
            if value is not None}


def _run_serve_command(args: argparse.Namespace) -> int:
    """``casa serve`` — run the allocation daemon in the foreground.

    Prints ``serving on http://HOST:PORT`` once bound (the smoke
    harness parses that line to learn an ephemeral port) and serves
    until interrupted.
    """
    from repro.serve import AllocationService
    from repro.serve.daemon import run_daemon

    service = AllocationService(_serve_config(args))

    def announce(url: str) -> None:
        print(f"serving on {url}", flush=True)

    run_daemon(service, host=args.host, port=args.port,
               announce=announce,
               max_body_bytes=args.max_body_bytes,
               client_timeout_s=args.client_timeout,
               drain_timeout_s=args.drain_timeout)
    return 0


def _run_serve_chaos_command(args: argparse.Namespace) -> int:
    """``casa serve-chaos`` — the serve-layer chaos gate."""
    from repro.serve.chaos import run_serve_chaos

    result = run_serve_chaos(
        workload=args.workload,
        scale=args.scale,
        requests=args.requests,
        max_inflight=args.max_inflight,
        p99_limit_s=args.p99_limit,
        adversarial_count=args.adversarial_count,
    )
    print(result.render())
    if args.show_output or not result.ok:
        print("--- daemon output ---")
        print(result.daemon_output, end="")
    return 0 if result.ok else 1


def _run_trace_report(args: argparse.Namespace) -> int:
    """``casa report RUNFILE`` — render a recorded run."""
    from repro.obs.report import load_run, render_run_report, \
        summarise_run

    run = load_run(args.run)
    if args.json:
        import json
        text = json.dumps(summarise_run(run, top=args.top), indent=2)
    else:
        text = render_run_report(run, top=args.top)
    if args.output:
        import pathlib
        pathlib.Path(args.output).write_text(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``): point stdout
        # at /dev/null so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` ends the command with one
    ``casa: error: <message>`` line on stderr instead of a traceback:
    exit 2 for a :class:`~repro.errors.ConfigurationError` (argparse's
    usage-error code), 1 for any other.
    """
    args = _build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        _check_args(args)
        return _run_command(args)
    except ReproError as error:
        print(f"casa: error: {error}", file=sys.stderr)
        return 2 if isinstance(error, ConfigurationError) else 1


def _check_args(args: argparse.Namespace) -> None:
    """Reject the values of ``--scale`` and ``--jobs`` no run can use.

    ``--scale`` follows the serve schema's rule (a finite number > 0);
    ``--jobs`` counts worker processes, so it is at least 1.
    """
    if getattr(args, "scale", None) is not None:
        from repro.workloads.registry import check_scale

        check_scale(args.scale)
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")


def _run_command(args: argparse.Namespace) -> int:
    """Run the parsed command *args*; returns a process exit code."""
    if args.command == "workloads":
        from repro.workloads.registry import available_workloads

        for name in available_workloads():
            print(name)
        return 0

    if args.command == "cache":
        return _run_cache_command(args)

    if args.command == "bench":
        return _run_bench_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "serve-chaos":
        return _run_serve_chaos_command(args)

    if args.command == "report" and args.run:
        return _run_trace_report(args)

    from repro.evaluation.reporting import microjoules, percent

    _configure_store(args)

    if args.command == "fig4":
        from repro.evaluation.fig4 import run_fig4

        def run_fig4_command(record: RunRecord) -> int:
            result = run_fig4(args.workload, scale=args.scale,
                              seed=args.seed, jobs=args.jobs,
                              record=record, backend=args.backend)
            print(result.render_chart() if args.chart
                  else result.render())
            print(f"average energy improvement: "
                  f"{percent(result.average_energy_improvement)}%")
            return 0
        return _run_observed(args, run_fig4_command)

    if args.command == "fig5":
        from repro.evaluation.fig5 import run_fig5

        def run_fig5_command(record: RunRecord) -> int:
            result = run_fig5(args.workload, scale=args.scale,
                              seed=args.seed, jobs=args.jobs,
                              record=record, backend=args.backend)
            print(result.render_chart() if args.chart
                  else result.render())
            print(f"average energy improvement: "
                  f"{percent(result.average_energy_improvement)}%")
            return 0
        return _run_observed(args, run_fig5_command)

    if args.command == "table1":
        from repro.evaluation.table1 import run_table1

        def run_table1_command(record: RunRecord) -> int:
            result = run_table1(scale=args.scale, seed=args.seed,
                                jobs=args.jobs, record=record,
                                backend=args.backend)
            print(result.render())
            print(f"overall: {percent(result.overall_vs_steinke)}% "
                  f"vs. Steinke, "
                  f"{percent(result.overall_vs_loop_cache)}% vs. "
                  "loop cache (paper: 21.1% / 28.6%)")
            return 0
        return _run_observed(args, run_table1_command)

    if args.command == "sweep":
        from repro.evaluation.sweep import run_sweep
        from repro.utils.tables import format_table

        def run_sweep_command(record: RunRecord) -> int:
            points = run_sweep(
                args.workload,
                tuple(args.sizes) if args.sizes else None,
                algorithms=tuple(args.algorithms),
                scale=args.scale,
                seed=args.seed,
                jobs=args.jobs,
                record=record,
                backend=args.backend,
            )
            headers = ["size (B)"] + [f"{a} (uJ)"
                                      for a in args.algorithms]
            rows = [
                [point.spm_size]
                + [microjoules(point.energy(a))
                   for a in args.algorithms]
                for point in points
            ]
            print(format_table(headers, rows,
                               title=f"sweep of {args.workload}"))
            print(record.render())
            if args.explain and "casa" in args.algorithms:
                from repro.evaluation.explain import (
                    explain_allocation,
                    render_explanation,
                    solver_summary,
                )
                session = _session(args)
                point = points[-1]
                allocation = point.result("casa").allocation
                model = session.energy_model(point.spm_size)
                print(f"\nCASA at {point.spm_size} B "
                      f"({allocation.used_bytes} B used); "
                      f"{solver_summary(allocation)}\n")
                print(render_explanation(explain_allocation(
                    session.conflict_graph(), allocation, model
                )))
            return 0
        return _run_observed(args, run_sweep_command)

    if args.command == "graph":
        print(_session(args).conflict_graph().to_dot())
        return 0

    if args.command == "overlay":
        session = _session(args)
        static = session.evaluate("casa", args.spm_size)
        overlay = session.evaluate("overlay", args.spm_size)
        gain = (1 - overlay.energy.total / static.energy.total) * 100
        print(f"static CASA : {microjoules(static.energy.total)} uJ")
        print(f"overlay     : {microjoules(overlay.energy.total)} uJ "
              f"({overlay.report.overlay_copy_words} copy words)")
        print(f"overlay gain: {percent(gain)}%")
        return 0

    if args.command == "wcet":
        from repro.analysis.wcet import compute_wcet
        from repro.traces.layout import LinkedImage

        session = _session(args)
        bench = session.workbench
        baseline_image = LinkedImage(bench.program,
                                     bench.memory_objects)
        baseline = compute_wcet(bench.program, baseline_image)
        result = session.evaluate("casa", args.spm_size)
        image = LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=result.allocation.spm_resident,
            spm_size=args.spm_size,
        )
        allocated = compute_wcet(bench.program, image)
        tightening = (1 - allocated.program_wcet
                      / baseline.program_wcet) * 100
        print(f"cache-only WCET bound : "
              f"{baseline.program_wcet:.0f} cycles")
        print(f"with {args.spm_size} B SPM    : "
              f"{allocated.program_wcet:.0f} cycles")
        print(f"tightening            : {percent(tightening)}%")
        return 0

    if args.command == "dse":
        from repro.evaluation.dse import explore, render_design_points

        def run_dse_command(record: RunRecord) -> int:
            points = explore(args.workload, args.budget,
                             scale=args.scale, seed=args.seed,
                             jobs=args.jobs, record=record,
                             backend=args.backend,
                             policies=args.policies,
                             associativity=args.assoc)
            print(render_design_points(points, top=args.top))
            best = points[0]
            print(f"best: {best.cache_size}B cache + {best.spm_size}B "
                  f"scratchpad at {microjoules(best.energy)} uJ")
            return 0
        return _run_observed(args, run_dse_command)

    if args.command == "explain":
        from repro.evaluation.explain import (
            explain_allocation,
            render_explanation,
            solver_summary,
        )

        session = _session(args)
        model = session.energy_model(args.spm_size)
        allocation = session.allocate("casa", args.spm_size)
        explanations = explain_allocation(
            session.conflict_graph(), allocation, model
        )
        print(f"CASA on {args.workload}, {args.spm_size} B scratchpad "
              f"({allocation.used_bytes} B used)")
        print(solver_summary(allocation) + "\n")
        print(render_explanation(explanations))
        return 0

    if args.command == "chaos":
        from repro.resilience.chaos import run_chaos
        from repro.resilience.faults import FAULTS_ENV, FaultPlan

        def run_chaos_command(record: RunRecord) -> int:
            del record  # chaos runs its own instrumented passes
            spec = args.faults if args.faults is not None \
                else os.environ.get(FAULTS_ENV, "")
            plan = FaultPlan.from_spec(spec) if spec else FaultPlan()
            policy = _retry_policy(args)
            result = run_chaos(
                args.workload,
                sizes=tuple(args.sizes) if args.sizes else None,
                algorithms=tuple(args.algorithms),
                plan=plan,
                scale=args.scale,
                seed=args.seed,
                jobs=args.jobs,
                policy=policy,
            )
            print(result.render())
            if not result.ok:
                return 1
            if plan.rules and result.injected == 0:
                print("chaos: FAIL — a fault plan was installed but "
                      "no fault ever fired")
                return 1
            if result.retries < args.min_retries:
                print(f"chaos: FAIL — expected >= {args.min_retries} "
                      f"retries, saw {result.retries}")
                return 1
            return 0
        return _run_observed(args, run_chaos_command)

    if args.command == "audit":
        from repro.obs.events import audit_workload

        result = audit_workload(args.workload, scale=args.scale,
                                seed=args.seed, backend=args.backend,
                                policy=args.policy,
                                associativity=args.assoc)
        print(result.render())
        print(result.recorder.render(top=args.top))
        return 0 if result.ok else 1

    if args.command == "verify-kernel":
        from repro.memory.kernel import verify_kernel

        report = verify_kernel(
            workloads=args.workloads, trials=args.trials,
            seed=args.seed, scale=args.scale,
        )
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "verify-grid":
        from repro.evaluation.verify_grid import verify_grid

        report = verify_grid(
            workloads=args.workloads, seed=args.seed,
            scale=args.scale,
        )
        print(report.render())
        return 0 if report.ok else 1

    if args.command == "report":
        from repro.evaluation.reportgen import generate_report
        text = generate_report(scale=args.scale, seed=args.seed,
                               charts=not args.no_charts)
        print(text)
        if args.output:
            import pathlib
            pathlib.Path(args.output).write_text(text + "\n")
        return 0

    if args.command == "pressure":
        from repro.analysis import (
            cache_set_pressure,
            render_pressure_table,
        )
        from repro.traces.layout import LinkedImage

        session = _session(args)
        bench = session.workbench
        image = LinkedImage(bench.program, bench.memory_objects)
        pressures = cache_set_pressure(image, bench.config.cache,
                                       session.conflict_graph())
        print(render_pressure_table(pressures, top=args.top))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
