"""The engine's one work-unit executor: serial or pooled, self-healing.

The work unit is a :class:`~repro.engine.grid.GridChunk`: one
allocator over a capacity axis of one workload — optionally with
cache / trace-formation overrides, as design-space exploration needs.
:func:`map_points_healed` evaluates a list of chunks serially or
across a process pool (sweeps are embarrassingly parallel per chunk),
each under a :class:`RetryPolicy` — bounded retry-with-backoff, an
optional per-unit timeout, and worker-crash detection with
process-pool restart — and returns a :class:`HealedRun` of per-unit
:class:`PointOutcome` records in input order instead of raising on
the first failure.  :func:`repro.engine.parallel.map_points`, which
the CLI exhibits use, runs the same loop under the default policy
and raises the first unit that still failed.  A caller that watches
the executor's liveness (the serve daemon) passes an ``on_unit``
callback; the parent process alone calls it.

Workers share the parent's on-disk artifact cache (when one is
configured), so the expensive allocation-independent stages are
computed once per workbench configuration no matter which worker gets
there first.

The healing loop leans on one invariant of the fault framework:
injection rules skip retry attempts unless explicitly opted in
(``retries``), so a bounded number of retries always converges to the
fault-free result.  Because every stage of the engine is deterministic,
a retried or recomputed unit is bit-identical to a never-faulted one —
which is exactly what the chaos gate (:mod:`repro.resilience.chaos`)
asserts.

Healing metrics: ``resilience.retries``, ``resilience.failed_points``,
``resilience.degraded_points``, ``resilience.pool_restarts`` and the
``resilience.retry.seconds`` histogram (wall time of each retry
attempt).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.engine.grid import GridChunk, check_algorithms, \
    evaluate_chunk
from repro.engine.runner import RunRecord, StageRunner
from repro.engine.store import ArtifactStore, default_store, \
    set_default_store
from repro.errors import ConfigurationError, InjectedFault, \
    PointTimeoutError
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, active_registry, \
    set_registry
from repro.obs.trace import TraceCollector, get_collector, \
    set_collector
from repro.resilience.faults import FaultPlan, active_fault_plan, \
    maybe_inject, set_fault_attempt, set_fault_plan

if TYPE_CHECKING:
    from repro.core.pipeline import ExperimentResult

#: The statuses a :class:`PointOutcome` may carry.
OUTCOME_STATUSES = ("ok", "retried", "degraded", "failed")

#: Liveness callback ``on_unit(unit, final)``: called with
#: ``final=False`` when the parent starts running or waiting on *unit*,
#: and with ``final=True`` once, when the unit's outcome is final.
UnitCallback = Callable[[GridChunk, bool], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :func:`map_points_healed` tries before giving up.

    Attributes:
        max_attempts: total tries per work unit — one grid chunk,
            i.e. a whole capacity axis (1 = no retries).
        backoff_s: sleep before the first retry, in seconds.
        backoff_factor: multiplier applied to the backoff per retry.
        timeout_s: evaluation timeout per work unit — one grid chunk,
            i.e. a whole capacity axis (``None`` = none).  On the pool
            path the bound covers waiting for the worker, so queueing
            behind other units counts toward it; size it for the
            whole batch or raise ``jobs``.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be > 0 or None, got {self.timeout_s}")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt *attempt*."""
        return self.backoff_s * (self.backoff_factor ** attempt)


@dataclass
class PointOutcome:
    """What happened to one work unit of a healed sweep.

    Attributes:
        index: position of the unit in the input list.
        point: the work unit itself (a grid chunk).
        status: one of :data:`OUTCOME_STATUSES` — ``ok`` (first try),
            ``retried`` (succeeded after >= 1 retry), ``degraded``
            (succeeded but a degradation ladder fired, e.g. the CASA
            solver fell back to greedy) or ``failed`` (no result).
        attempts: evaluation attempts consumed (>= 1).
        error: structured record of the last failure —
            ``{"type", "message", "site"}`` — or ``None``.
        result: the chunk's per-capacity result list, or ``None`` when
            failed.
        run_id: correlation id of the structured run log active when
            the outcome was built, or ``None`` when logging was off.
        exception: the last failure itself (``error`` is its
            structured record), which
            :func:`~repro.engine.parallel.map_points` re-raises.
    """

    index: int
    point: GridChunk
    status: str
    attempts: int
    error: dict[str, str] | None = None
    result: "list[ExperimentResult] | None" = None
    run_id: str | None = None
    exception: BaseException | None = field(default=None, repr=False,
                                            compare=False)

    def describe(self) -> str:
        """One-line human-readable summary of this outcome."""
        text = (f"{self.point.label}: {self.status} after "
                f"{self.attempts} attempt(s)")
        if self.error is not None:
            text += f" — {self.error['type']}: {self.error['message']}"
        return text


@dataclass
class HealedRun:
    """The outcome of a self-healing sweep, one record per unit.

    Attributes:
        outcomes: per-unit outcomes, in input order.
    """

    outcomes: list[PointOutcome] = field(default_factory=list)

    @property
    def results(self) -> list["list[ExperimentResult] | None"]:
        """Per-unit result lists in input order (``None`` where failed)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def ok(self) -> bool:
        """Whether every point produced a result (possibly retried)."""
        return all(o.status != "failed" for o in self.outcomes)

    def counts(self) -> dict[str, int]:
        """Outcome-status histogram (statuses with zero count omitted)."""
        totals: dict[str, int] = {}
        for outcome in self.outcomes:
            totals[outcome.status] = totals.get(outcome.status, 0) + 1
        return totals

    def failure_report(self) -> str:
        """Multi-line report of every non-``ok`` outcome (may be empty)."""
        lines = [outcome.describe() for outcome in self.outcomes
                 if outcome.status != "ok"]
        return "\n".join(lines)


def _error_record(error: BaseException) -> dict[str, str]:
    """The structured ``PointOutcome.error`` form of an exception."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "site": str(getattr(error, "site", "")),
    }


def _log_event(event: str, **fields: Any) -> None:
    """:func:`~repro.obs.logging.log_event`, loading nothing when no
    run log can be installed (see :func:`repro.obs.loaded`)."""
    run_log = obs.loaded("logging")
    if run_log is not None:
        run_log.log_event(event, **fields)


def _active_run_id() -> str | None:
    """The active run log's id, or ``None`` (see :func:`_log_event`)."""
    run_log = obs.loaded("logging")
    return run_log.active_run_id() if run_log is not None else None


def _attempt_ended(attempt: int, started: float) -> None:
    """Observe the wall time of attempt *attempt* if it was a retry."""
    if attempt:
        metrics.observe("resilience.retry.seconds",
                        time.perf_counter() - started)


def _finish_outcome(index: int, point: GridChunk, attempts: int,
                    result: "list[ExperimentResult]",
                    error: BaseException | None) -> PointOutcome:
    """Build the outcome of a successful evaluation.

    Distinguishes ``ok`` / ``retried`` / ``degraded`` and counts
    degraded points; *error* is the last failure before the
    success, kept for the report.  The outcome is ``degraded`` when
    *any* capacity step of the chunk degraded.
    """
    degraded = any(
        getattr(getattr(step, "allocation", None),
                "solver_status", "") == "degraded"
        for step in result
    )
    if degraded:
        metrics.inc("resilience.degraded_points")
        status = "degraded"
    elif attempts > 1:
        status = "retried"
    else:
        status = "ok"
    return PointOutcome(
        index=index, point=point, status=status, attempts=attempts,
        error=_error_record(error) if error is not None else None,
        result=result, run_id=_active_run_id(),
    )


def _failed_outcome(index: int, point: GridChunk, attempts: int,
                    error: BaseException) -> PointOutcome:
    """Build (and count) the outcome of an exhausted point."""
    metrics.inc("resilience.failed_points")
    _log_event("point.failed", point=point.label,
               attempts=attempts, error=type(error).__name__)
    return PointOutcome(
        index=index, point=point, status="failed", attempts=attempts,
        error=_error_record(error), result=None,
        run_id=_active_run_id(), exception=error,
    )


def _evaluate_unit(chunk: GridChunk,
                   runner: StageRunner) -> "list[ExperimentResult]":
    """Evaluate one work unit, timing it when metrics are on.

    The per-unit wall time lands in the ``chunk.evaluate.seconds``
    percentile histogram; with no registry installed this is a plain
    :func:`~repro.engine.grid.evaluate_chunk` call.
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
    ``run_id``.
    """
    set_default_store(ArtifactStore(cache_dir=cache_dir))
    if fault_spec:
        set_fault_plan(FaultPlan.from_spec(fault_spec))
    if log_spec is not None:
        from repro.obs.logging import install_from_spec

        install_from_spec(log_spec)


def _evaluate_in_worker(task: tuple[GridChunk, bool, bool, bool, int]):
    """Worker-side evaluation of one work unit.

    *task* is ``(chunk, trace, metrics, events, attempt)`` — the flags
    mirror whether the parent had a collector/registry/event recorder
    installed, and *attempt* is the retry attempt the unit is on.
    Returns ``(result, record_dict, span_events, metrics_snapshot,
    event_snapshot)`` where the middle three are ``None`` unless the
    matching flag was set; the parent merges them back in input order,
    exactly like the record counters.
    """
    chunk, trace_enabled, metrics_enabled, events_enabled, attempt = task
    if events_enabled:
        from repro.obs.events import EventRecorder, set_recorder
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


def _evaluate_with_timeout(point: GridChunk, runner: StageRunner,
                           timeout_s: float | None
                           ) -> "list[ExperimentResult]":
    """Serial-path evaluation with an optional wall-clock bound.

    The bounded variant runs the evaluation on a daemon thread and
    abandons it on timeout (Python threads cannot be killed; the
    orphaned thread finishes in the background while the sweep moves
    on).  Raises :class:`~repro.errors.PointTimeoutError` on timeout.
    """
    if timeout_s is None:
        return _evaluate_unit(point, runner=runner)
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = _evaluate_unit(point, runner=runner)
        except BaseException as error:  # noqa: BLE001 — forwarded below
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise PointTimeoutError(
            f"point {point.label} exceeded {timeout_s:g}s",
            point=point.label, seconds=timeout_s,
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def _unwatched(unit: GridChunk, final: bool) -> None:
    """The :data:`UnitCallback` of a caller that watches no liveness."""


def _heal_unit(index: int, point: GridChunk, policy: RetryPolicy,
               runner: StageRunner, on_unit: UnitCallback,
               attempt: int = 0,
               last_error: BaseException | None = None) -> PointOutcome:
    """Heal one unit in-process, from retry attempt *attempt* on.

    A pool that could not be restarted hands its unfinished units here
    with their attempt count and last error so far.
    """
    on_unit(point, False)
    outcome = None
    while attempt < policy.max_attempts:
        set_fault_attempt(attempt)
        started = time.perf_counter()
        try:
            result = _evaluate_with_timeout(
                point, runner, policy.timeout_s)
        except Exception as error:  # contained: reported per unit
            _attempt_ended(attempt, started)
            last_error = error
            attempt += 1
            if attempt < policy.max_attempts:
                metrics.inc("resilience.retries")
                _log_event("point.retry", point=point.label,
                           attempt=attempt, error=type(error).__name__)
                time.sleep(policy.backoff_for(attempt - 1))
            continue
        finally:
            set_fault_attempt(0)
        _attempt_ended(attempt, started)
        outcome = _finish_outcome(index, point, attempt + 1, result,
                                  last_error)
        break
    if outcome is None:
        assert last_error is not None
        outcome = _failed_outcome(index, point, policy.max_attempts,
                                  last_error)
    on_unit(point, True)
    return outcome


def _heal_serial(points: list[GridChunk], policy: RetryPolicy,
                 record: RunRecord | None,
                 on_unit: UnitCallback) -> HealedRun:
    """Serial healing loop: retry each point in-process."""
    runner = StageRunner(record=record)
    return HealedRun([_heal_unit(index, point, policy, runner, on_unit)
                      for index, point in enumerate(points)])


def _heal_pooled(points: list[GridChunk], jobs: int,
                 policy: RetryPolicy, record: RunRecord | None,
                 cache_dir: str | os.PathLike | None,
                 on_unit: UnitCallback) -> HealedRun:
    """Pool healing loop: per-unit retries plus pool restarts.

    A broken pool (worker crash) or a unit timeout restarts the pool
    and re-runs every unfinished unit with its attempt counter
    advanced, so injected first-attempt faults cannot recur and the
    loop provably terminates.  When no pool can be created — at the
    start or on a restart (restricted sandbox, unpicklable payload,
    injected ``worker.spawn`` fault) — the unfinished units heal
    serially instead, same results.

    The parent alone calls *on_unit*: the unit it waits on is the
    current one, and each unit is marked final once, when its outcome
    is.
    """
    # The pool machinery (multiprocessing, subprocess, socket, logging)
    # loads only when a pool starts.
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    n = len(points)
    if cache_dir is None:
        cache_dir = default_store().cache_dir
    init_arg = str(cache_dir) if cache_dir is not None else None
    collector = get_collector()
    registry = active_registry()
    events = obs.loaded("events")
    recorder = events.active_recorder() if events is not None else None
    run_log = obs.loaded("logging")
    log_spec = run_log.active_log_spec() if run_log is not None else None
    flags = (collector is not None, registry is not None,
             recorder is not None)

    def make_pool() -> concurrent.futures.ProcessPoolExecutor:
        maybe_inject("worker.spawn", jobs=jobs)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, n),
            initializer=_init_worker,
            initargs=(init_arg, _active_fault_spec(), log_spec),
        )

    started = [0.0] * n

    def submit(pool, index: int, attempt: int):
        task = (points[index], *flags, attempt)
        started[index] = time.perf_counter()
        return pool.submit(_evaluate_in_worker, task)

    outcomes: list[PointOutcome | None] = [None] * n
    payloads: list[tuple | None] = [None] * n
    attempts = [0] * n
    last_errors: list[BaseException | None] = [None] * n
    pending = set(range(n))
    pool = None

    def finish(index: int, outcome: PointOutcome) -> None:
        outcomes[index] = outcome
        pending.discard(index)
        on_unit(points[index], True)

    try:
        pool = make_pool()
        futures = {index: submit(pool, index, 0) for index in pending}

        def restart(bump: set[int]) -> None:
            """Replace the pool; re-run *pending* with bumped attempts."""
            nonlocal pool
            metrics.inc("resilience.pool_restarts")
            _log_event("pool.restart", pending=len(pending))
            pool.shutdown(wait=False, cancel_futures=True)
            for index in bump:
                _attempt_ended(attempts[index], started[index])
                attempts[index] += 1
            exhausted = {index for index in pending
                         if attempts[index] >= policy.max_attempts}
            for index in exhausted:
                error = last_errors[index]
                assert error is not None
                finish(index, _failed_outcome(
                    index, points[index], attempts[index], error))
            pool = make_pool()
            for index in pending:
                if attempts[index] > 0:
                    metrics.inc("resilience.retries")
                futures[index] = submit(pool, index, attempts[index])

        while pending:
            index = min(pending)
            on_unit(points[index], False)
            future = futures[index]
            try:
                payload = future.result(timeout=policy.timeout_s)
            except concurrent.futures.TimeoutError:
                # The worker is wedged on this point; the only safe
                # move is a whole-pool restart.  Every unfinished
                # point re-runs with its attempt advanced (injected
                # first-attempt faults cannot recur).
                error = PointTimeoutError(
                    f"point {points[index].label} exceeded "
                    f"{policy.timeout_s:g}s",
                    point=points[index].label,
                    seconds=policy.timeout_s or 0.0,
                )
                for other in pending:
                    last_errors[other] = error if other == index \
                        else (last_errors[other] or error)
                restart(set(pending))
                continue
            except BrokenProcessPool as error:
                # A worker died (crash fault or real).  Which point
                # killed it is unknowable, so every unfinished point
                # retries on a fresh pool.
                for other in pending:
                    last_errors[other] = last_errors[other] or error
                restart(set(pending))
                continue
            except Exception as error:  # worker raised for this point
                _attempt_ended(attempts[index], started[index])
                last_errors[index] = error
                attempts[index] += 1
                if attempts[index] < policy.max_attempts:
                    metrics.inc("resilience.retries")
                    _log_event("point.retry",
                               point=points[index].label,
                               attempt=attempts[index],
                               error=type(error).__name__)
                    time.sleep(policy.backoff_for(attempts[index] - 1))
                    try:
                        futures[index] = submit(pool, index,
                                                attempts[index])
                    except BrokenProcessPool as broken:
                        # Another point's crash broke the pool while
                        # this one was being retried.
                        for other in pending:
                            last_errors[other] = \
                                last_errors[other] or broken
                        restart(set(pending) - {index})
                else:
                    finish(index, _failed_outcome(
                        index, points[index], attempts[index], error))
                continue
            _attempt_ended(attempts[index], started[index])
            payloads[index] = payload
            finish(index, _finish_outcome(
                index, points[index], attempts[index] + 1, payload[0],
                last_errors[index]))
    except (OSError, pickle.PicklingError, InjectedFault):
        # No usable pool: heal what is left in-process.  A unit that
        # already used an attempt continues as a counted retry.
        _log_event("map.fallback", mode="serial", units=len(pending))
        runner = StageRunner(record=record)
        for index in sorted(pending):
            if attempts[index]:
                metrics.inc("resilience.retries")
            outcomes[index] = _heal_unit(
                index, points[index], policy, runner, on_unit,
                attempts[index], last_errors[index])
    finally:
        # Join an idle pool's workers; never wait on one left busy by
        # an error, whose worker may be wedged.
        if pool is not None:
            pool.shutdown(wait=not pending, cancel_futures=True)

    # Worker observability folds back in input order, mirroring the
    # record merge: the merged span/metric stream is deterministic no
    # matter which worker finished first (failed units contribute
    # nothing).
    for payload in payloads:
        if payload is None:
            continue
        _, counts, events, snapshot, event_snapshot = payload
        if record is not None:
            record.merge(counts)
        if collector is not None and events:
            collector.merge(events)
        if registry is not None and snapshot:
            registry.merge(snapshot)
        if recorder is not None and event_snapshot:
            recorder.merge(event_snapshot)
    final = [outcome for outcome in outcomes if outcome is not None]
    assert len(final) == n
    return HealedRun(final)


def _run(points: list[GridChunk] | tuple[GridChunk, ...], jobs: int,
         policy: RetryPolicy, record: RunRecord | None,
         cache_dir: str | os.PathLike | None,
         on_unit: UnitCallback | None = None) -> HealedRun:
    """Evaluate *points* under *policy*, serially or pooled.

    The one loop behind :func:`map_points_healed` and
    :func:`~repro.engine.parallel.map_points`.
    """
    points = list(points)
    check_algorithms(points)
    on_unit = on_unit if on_unit is not None else _unwatched
    _log_event("map.start", units=len(points), jobs=jobs,
               max_attempts=policy.max_attempts)
    if jobs > 1 and len(points) > 1:
        run = _heal_pooled(points, jobs, policy, record, cache_dir,
                           on_unit)
    else:
        run = _heal_serial(points, policy, record, on_unit)
    _log_event("map.done", units=len(points), jobs=jobs)
    return run


def map_points_healed(
    points: list[GridChunk] | tuple[GridChunk, ...],
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    record: RunRecord | None = None,
    cache_dir: str | os.PathLike | None = None,
    on_unit: UnitCallback | None = None,
) -> HealedRun:
    """Evaluate *points* with self-healing; never raises per unit.

    Failures are retried under *policy* (with backoff), worker crashes
    restart the pool, per-unit timeouts are enforced, and the sweep
    always completes, returning a :class:`HealedRun` whose outcomes
    (and results) are in input order — byte-for-byte identical to a
    serial run.  Units that still fail after ``policy.max_attempts``
    tries are reported as ``failed`` outcomes with a structured error
    instead of aborting the sweep.

    Args:
        points: :class:`~repro.engine.grid.GridChunk` work units in
            the order outcomes are wanted (a chunk's outcome carries
            the list of its per-capacity results, and the whole chunk
            retries as one unit).
        jobs: worker processes; ``<= 1`` heals serially in-process.
        policy: retry/timeout policy (default :class:`RetryPolicy`).
        record: run record receiving merged per-stage counters from
            successful evaluations.
        cache_dir: on-disk cache directory shared with workers;
            defaults to the process-wide store's directory.
        on_unit: optional :data:`UnitCallback`, called by the parent
            process when it starts running or waiting on a unit and
            once more when that unit's outcome is final.

    Raises:
        ConfigurationError: for an unknown algorithm (checked up
            front — a misconfigured sweep is a bug, not a fault).
    """
    return _run(points, jobs,
                policy if policy is not None else RetryPolicy(),
                record, cache_dir, on_unit)
