"""Parallel work-unit execution over ``concurrent.futures``.

The work unit is a :class:`~repro.engine.grid.GridChunk`: one
allocator over a capacity axis of one workload — optionally with
cache / trace-formation overrides, as design-space exploration needs.
:func:`map_points` fans a list of chunks across a process pool (sweeps
are embarrassingly parallel per chunk), evaluates serially whatever a
pool cannot deliver (no pool, or a broken one), and always returns
results in the order of the input chunks, so parallel output is
indistinguishable from serial output.  The parent process alone
reports progress to the live bus.

Workers share the parent's on-disk artifact cache (when one is
configured), so the expensive allocation-independent stages are
computed once per workbench configuration no matter which worker gets
there first.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
import pickle
import time
from typing import TYPE_CHECKING

from repro.engine.grid import GridChunk, check_algorithms, \
    evaluate_chunk
from repro.engine.runner import RunRecord, StageRunner
from repro.engine.store import ArtifactStore, default_store, \
    set_default_store
from repro.errors import InjectedFault
from repro.resilience.faults import FaultPlan, active_fault_plan, \
    maybe_inject, set_fault_attempt, set_fault_plan
from repro.obs import live
from repro.obs.events import EventRecorder, active_recorder, \
    set_recorder
from repro.obs.logging import active_log_spec, install_from_spec, \
    log_event
from repro.obs.metrics import MetricsRegistry, active_registry, \
    set_registry
from repro.obs.trace import TraceCollector, get_collector, \
    set_collector

if TYPE_CHECKING:
    from repro.core.pipeline import ExperimentResult


def _evaluate_unit(chunk: GridChunk,
                   runner: StageRunner | None = None
                   ) -> list["ExperimentResult"]:
    """Evaluate one work unit, timing it when metrics are on.

    The per-unit wall time lands in the ``chunk.evaluate.seconds``
    percentile histogram; with no registry installed this is a plain
    :func:`~repro.engine.grid.evaluate_chunk` call.  Progress notes
    are the callers' job: only the parent process reports them.
    """
    registry = active_registry()
    if registry is None:
        return evaluate_chunk(chunk, runner=runner)
    start = time.perf_counter()
    try:
        return evaluate_chunk(chunk, runner=runner)
    finally:
        registry.histogram("chunk.evaluate.seconds").observe(
            time.perf_counter() - start)


def _init_worker(cache_dir: str | None,
                 fault_spec: str | None = None,
                 log_spec: tuple[str, str] | None = None) -> None:
    """Process-pool initializer: point the worker at the shared cache.

    When a fault plan is active in the parent, its spec rides along so
    workers replay the same rules even under the ``spawn`` start
    method (``fork`` would inherit the plan, but the spec makes the
    behaviour start-method independent — with fresh per-process rule
    state either way).  The run-log spec rides along the same way, so
    the worker reopens the parent's structured log under the same
    ``run_id``.  Workers report no progress: the parent counts units,
    so a bus inherited through ``fork`` is dropped.
    """
    set_default_store(ArtifactStore(cache_dir=cache_dir))
    if fault_spec:
        set_fault_plan(FaultPlan.from_spec(fault_spec))
    live.set_progress_sink(None)
    install_from_spec(log_spec)


def _evaluate_in_worker(task: tuple[GridChunk, bool, bool, bool, int]):
    """Worker-side evaluation of one work unit.

    *task* is ``(chunk, trace, metrics, events, attempt)`` — the flags
    mirror whether the parent had a collector/registry/event recorder
    installed, and *attempt* is the retry attempt the self-healing
    layer is on (0 for plain :func:`map_points`).  Returns ``(result,
    record_dict, span_events, metrics_snapshot, event_snapshot)``
    where the middle three are ``None`` unless the matching flag was
    set; the parent merges them back in input order, exactly like the
    record counters.
    """
    chunk, trace_enabled, metrics_enabled, events_enabled, attempt = task
    set_fault_attempt(attempt)
    collector = TraceCollector() if trace_enabled else None
    registry = MetricsRegistry() if metrics_enabled else None
    recorder = EventRecorder() if events_enabled else None
    previous_collector = set_collector(collector) \
        if trace_enabled else None
    previous_registry = set_registry(registry) \
        if metrics_enabled else None
    previous_recorder = set_recorder(recorder) \
        if events_enabled else None
    try:
        record = RunRecord()
        runner = StageRunner(record=record)
        result = _evaluate_unit(chunk, runner=runner)
    finally:
        if trace_enabled:
            set_collector(previous_collector)
        if metrics_enabled:
            set_registry(previous_registry)
        if events_enabled:
            set_recorder(previous_recorder)
    events = [event.as_json() for event in collector.events()] \
        if collector is not None else None
    snapshot = registry.snapshot() if registry is not None else None
    event_snapshot = recorder.snapshot() \
        if recorder is not None else None
    return result, record.as_dict(), events, snapshot, event_snapshot


def _active_fault_spec() -> str | None:
    """Spec of the parent's fault plan, for worker initializers."""
    plan = active_fault_plan()
    return plan.spec() if plan is not None and plan.rules else None


def _run_serial(points: list[GridChunk],
                runner: StageRunner | None,
                record: RunRecord | None) -> list[list["ExperimentResult"]]:
    if runner is None:
        runner = StageRunner(record=record)
    results = []
    for point in points:
        live.note_unit_started(point.label)
        results.append(_evaluate_unit(point, runner=runner))
        live.note_unit_finished(point.label)
    return results


def map_points(
    points: list[GridChunk] | tuple[GridChunk, ...],
    jobs: int = 1,
    runner: StageRunner | None = None,
    record: RunRecord | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> list[list["ExperimentResult"]]:
    """Evaluate *points*, optionally across a process pool.

    Args:
        points: :class:`~repro.engine.grid.GridChunk` work units in
            the order results are wanted.
        jobs: worker processes; ``<= 1`` runs serially in-process.
        runner: stage runner for the serial path (ignored when a pool
            is used — each worker builds its own).
        record: run record that receives the merged per-stage counters
            from every worker (or the serial runner).
        cache_dir: on-disk cache directory shared with the workers;
            defaults to the process-wide store's directory.

    Returns:
        One list of :class:`~repro.core.pipeline.ExperimentResult` per
        chunk (one entry per capacity), in input order — byte-for-byte
        identical to a serial run.

    Raises:
        ConfigurationError: for an unknown algorithm.
    """
    points = list(points)
    check_algorithms(points)
    live.note_total(len(points))
    log_event("map.start", units=len(points), jobs=jobs)
    if jobs <= 1 or len(points) <= 1:
        return _run_serial(points, runner, record)

    if cache_dir is None:
        cache_dir = default_store().cache_dir
    init_arg = str(cache_dir) if cache_dir is not None else None
    collector = get_collector()
    registry = active_registry()
    recorder = active_recorder()
    tasks = [
        (point, collector is not None, registry is not None,
         recorder is not None, 0)
        for point in points
    ]
    outcomes = []
    try:
        maybe_inject("worker.spawn", jobs=jobs)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(points)),
            initializer=_init_worker,
            initargs=(init_arg, _active_fault_spec(), active_log_spec()),
        ) as pool:
            futures = [pool.submit(_evaluate_in_worker, task)
                       for task in tasks]
            # The parent is the only progress reporter: a unit is
            # current while the parent waits on it, done on arrival.
            try:
                for point, future in zip(points, futures):
                    live.note_unit_started(point.label)
                    outcomes.append(future.result())
                    live.note_unit_finished(point.label)
            finally:
                pool.shutdown(cancel_futures=True)  # drop unstarted
    except (OSError, concurrent.futures.process.BrokenProcessPool,
            pickle.PicklingError, InjectedFault):
        # No usable multiprocessing (restricted sandbox, unpicklable
        # payload...): the units not yet returned degrade to the
        # serial path, same results.
        log_event("map.fallback", mode="serial",
                  units=len(points) - len(outcomes))
    results: list[list["ExperimentResult"]] = []
    # Worker observability folds back in input order, mirroring the
    # record merge: the merged span/metric stream is deterministic no
    # matter which worker finished first.
    for result, counts, events, snapshot, event_snapshot in outcomes:
        if record is not None:
            record.merge(counts)
        if collector is not None and events:
            collector.merge(events)
        if registry is not None and snapshot:
            registry.merge(snapshot)
        if recorder is not None and event_snapshot:
            recorder.merge(event_snapshot)
        results.append(result)
    if len(results) < len(points):
        return results + _run_serial(points[len(results):], runner,
                                     record)
    log_event("map.done", units=len(points), jobs=jobs)
    return results
