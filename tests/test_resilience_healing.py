"""Self-healing sweeps: retries, timeouts, crashes, fallbacks."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.engine.store import ArtifactStore, set_default_store
from repro.errors import ConfigurationError, InjectedFault
from repro.obs.events import EventRecorder, set_recorder
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience.faults import (
    FaultPlan,
    set_fault_attempt,
    set_fault_plan,
)
from repro.resilience.healing import (
    RetryPolicy,
    _finish_outcome,
    map_points_healed,
)

POINTS = [
    GridChunk("tiny", (64,), "casa", scale=0.2),
    GridChunk("tiny", (64,), "steinke", scale=0.2),
    GridChunk("tiny", (128,), "casa", scale=0.2),
    GridChunk("tiny", (128,), "steinke", scale=0.2),
]


@pytest.fixture(autouse=True)
def clean_fault_state():
    """No injection plan leaks into or out of these tests."""
    set_fault_plan(None)
    set_fault_attempt(0)
    yield
    set_fault_plan(None)
    set_fault_attempt(0)


@pytest.fixture
def registry():
    """A metrics registry installed as the active one."""
    active = MetricsRegistry()
    previous = set_registry(active)
    yield active
    set_registry(previous)


@pytest.fixture
def shared_cache(tmp_path):
    """A disk-backed default store the worker pool can share."""
    previous = set_default_store(
        ArtifactStore(cache_dir=tmp_path / "cache")
    )
    yield
    set_default_store(previous)


def signatures(results):
    """The deterministic observables of per-unit result lists."""
    return [(r.energy.total, r.report.cache_misses,
             tuple(sorted(r.allocation.spm_resident)))
            for unit in results for r in unit]


def test_transient_fault_is_retried_to_identical_result(registry):
    points = POINTS[:2]
    clean = map_points(points, jobs=1)
    set_fault_plan(FaultPlan.from_spec("worker.exec:error@nth=1"))
    healed = map_points_healed(
        points, policy=RetryPolicy(backoff_s=0.001))
    assert healed.ok
    assert healed.counts() == {"retried": 1, "ok": 1}
    [retried] = [o for o in healed.outcomes if o.status == "retried"]
    assert retried.attempts == 2
    assert retried.error == {
        "type": "InjectedFault",
        "message": "injected fault at worker.exec",
        "site": "worker.exec",
    }
    assert signatures(healed.results) == signatures(clean)
    assert registry.value("resilience.retries") == 1
    assert registry.value("resilience.failed_points") == 0


def test_persistent_fault_exhausts_attempts_without_aborting(registry):
    points = POINTS[:2]
    # `retries` + limit=2 keeps the fault firing on both attempts of
    # the first point; the second point must still complete.
    set_fault_plan(FaultPlan.from_spec(
        "worker.exec:error@nth=1,limit=2,retries"))
    healed = map_points_healed(
        points, policy=RetryPolicy(max_attempts=2, backoff_s=0.001))
    assert not healed.ok
    assert healed.counts() == {"failed": 1, "ok": 1}
    failed = healed.outcomes[0]
    assert failed.attempts == 2
    assert failed.error is not None
    assert failed.error["type"] == "InjectedFault"
    assert "worker.exec" in failed.describe()
    assert healed.results[0] is None
    assert healed.results[1] is not None
    assert healed.failure_report() != ""
    assert registry.value("resilience.failed_points") == 1


def test_sleep_fault_trips_timeout_then_retry_succeeds(registry):
    set_fault_plan(FaultPlan.from_spec("worker.exec:sleep=2@nth=1"))
    healed = map_points_healed(
        POINTS[:1],
        policy=RetryPolicy(max_attempts=2, backoff_s=0.001,
                           timeout_s=0.2),
    )
    assert healed.ok
    [outcome] = healed.outcomes
    assert outcome.status == "retried"
    assert outcome.error is not None
    assert outcome.error["type"] == "PointTimeoutError"
    assert registry.value("resilience.retries") == 1


def test_spawn_fault_degrades_plain_map_points_to_serial(
        shared_cache, registry):
    clean = map_points(POINTS, jobs=1)
    set_fault_plan(FaultPlan.from_spec("worker.spawn:error@nth=1"))
    fallen_back = map_points(POINTS, jobs=2)
    assert signatures(fallen_back) == signatures(clean)
    assert registry.value("faults.injected.worker.spawn") == 1


def test_map_points_heals_a_worker_crash(shared_cache):
    clean = map_points(POINTS, jobs=1)
    set_fault_plan(FaultPlan.from_spec("worker.exec:crash@nth=1"))
    assert signatures(map_points(POINTS, jobs=2)) == signatures(clean)


def test_map_points_raises_a_persistent_fault_after_retries(registry):
    set_fault_plan(FaultPlan.from_spec(
        "worker.exec:error@nth=1,limit=3,retries"))
    with pytest.raises(InjectedFault):
        map_points(POINTS[:2], jobs=1)
    assert registry.value("resilience.retries") == 2
    assert registry.value("resilience.failed_points") == 1


def test_retry_policy_needs_at_least_one_attempt():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)


@pytest.mark.parametrize("timeout_s", [0, -1.0])
def test_retry_policy_needs_a_positive_timeout(timeout_s):
    with pytest.raises(ConfigurationError):
        RetryPolicy(timeout_s=timeout_s)
    assert RetryPolicy(timeout_s=0.001).timeout_s == 0.001


def test_spawn_fault_degrades_healed_pool_to_serial(
        shared_cache, registry):
    clean = map_points(POINTS, jobs=1)
    set_fault_plan(FaultPlan.from_spec("worker.spawn:error@nth=1"))
    healed = map_points_healed(POINTS, jobs=2,
                               policy=RetryPolicy(backoff_s=0.001))
    assert healed.ok
    assert signatures(healed.results) == signatures(clean)
    assert registry.value("faults.injected.worker.spawn") == 1


def test_worker_crash_mid_batch_heals_and_forwards_observability(
        shared_cache, registry):
    clean = map_points(POINTS, jobs=1)
    set_default_store(ArtifactStore())  # drop the warmed memory tier
    recorder = EventRecorder()
    previous_recorder = set_recorder(recorder)
    try:
        set_fault_plan(FaultPlan.from_spec("worker.exec:crash@nth=2"))
        healed = map_points_healed(
            POINTS, jobs=2, policy=RetryPolicy(backoff_s=0.001))
    finally:
        set_recorder(previous_recorder)
    assert healed.ok
    assert signatures(healed.results) == signatures(clean)
    assert registry.value("resilience.pool_restarts") >= 1
    assert registry.value("resilience.retries") >= 1
    # Worker-side observability still merges back after the restart.
    assert registry.value("sim.runs") >= 1
    assert recorder.total_events > 0


def test_retry_attempts_land_in_the_retry_histogram(registry):
    set_fault_plan(FaultPlan.from_spec("worker.exec:error@nth=1"))
    healed = map_points_healed(
        POINTS[:2], policy=RetryPolicy(backoff_s=0.001))
    assert healed.ok
    assert sorted(o.attempts for o in healed.outcomes) == [1, 2]
    # Only the retry attempt is timed; first attempts are not.
    histogram = registry.histogram("resilience.retry.seconds")
    assert histogram.count == 1
    assert histogram.total > 0


def test_failed_unit_still_times_its_retries(registry):
    set_fault_plan(FaultPlan.from_spec(
        "worker.exec:error@nth=1,limit=2,retries"))
    healed = map_points_healed(
        POINTS[:1], policy=RetryPolicy(max_attempts=2, backoff_s=0.001))
    assert not healed.ok
    [failed] = healed.outcomes
    assert failed.status == "failed"
    assert failed.attempts == 2
    assert registry.histogram("resilience.retry.seconds").count == 1


def _watched(points, **kwargs):
    """Heal *points*, recording every ``on_unit`` call in order as
    ``(unit, final, monotonic time)``."""
    calls = []
    healed = map_points_healed(
        points, on_unit=lambda unit, final: calls.append(
            (unit, final, time.monotonic())),
        **kwargs)
    return healed, calls


def _assert_each_unit_final_once(points, calls):
    finals = [unit for unit, final, _ in calls if final]
    assert sorted(map(id, finals)) == sorted(map(id, points))
    for point in points:
        # A unit is marked current before its outcome is final.
        marks = [final for unit, final, _ in calls if unit is point]
        assert marks[0] is False and marks[-1] is True


def test_on_unit_marks_each_serial_unit_once(registry):
    """A failed attempt is not a final outcome; the outcome is."""
    set_fault_plan(FaultPlan.from_spec("worker.exec:error@nth=1"))
    points = POINTS[:2]
    healed, calls = _watched(points, policy=RetryPolicy(backoff_s=0.001))
    assert healed.counts() == {"retried": 1, "ok": 1}
    _assert_each_unit_final_once(points, calls)


def test_on_unit_marks_each_pooled_unit_once(shared_cache):
    points = POINTS[:2]
    healed, calls = _watched(points, jobs=2)
    assert healed.ok
    _assert_each_unit_final_once(points, calls)


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_unit_spans_a_stalled_unit(shared_cache, jobs):
    """The sleeping unit stays current until its outcome is final;
    pooled, that is while the parent waits on the worker."""
    set_fault_plan(FaultPlan.from_spec("worker.exec:sleep=0.3@nth=1"))
    healed, calls = _watched(POINTS[:2], jobs=jobs)
    assert healed.ok
    current = {}
    longest = 0.0
    for unit, final, at in calls:
        if final:
            longest = max(longest, at - current.pop(id(unit)))
        else:
            current[id(unit)] = at
    assert not current
    assert longest >= 0.25


def test_on_unit_marks_each_unit_once_across_a_failed_restart(
        shared_cache):
    """A crash whose pool restart fails heals in-process, once."""
    set_fault_plan(FaultPlan.from_spec(
        "worker.exec:crash@nth=1;worker.spawn:error@nth=2"))
    points = POINTS[:3]
    healed, calls = _watched(points, jobs=2,
                             policy=RetryPolicy(backoff_s=0.001))
    assert healed.ok
    _assert_each_unit_final_once(points, calls)


def test_outcomes_carry_active_run_id(tmp_path):
    from repro.obs.logging import RunLog, set_run_log

    log = RunLog(str(tmp_path / "run.log"), run_id="feedbeefcafe")
    previous = set_run_log(log)
    try:
        healed = map_points_healed(POINTS[:1],
                                   policy=RetryPolicy(backoff_s=0.001))
    finally:
        set_run_log(previous)
        log.close()
    assert healed.outcomes[0].run_id == "feedbeefcafe"


def test_unknown_algorithm_rejected_up_front():
    with pytest.raises(ConfigurationError):
        map_points_healed([GridChunk("tiny", (64,), "annealing")])


def test_finish_outcome_classifies_degraded_results(registry):
    point = POINTS[0]
    degraded = SimpleNamespace(
        allocation=SimpleNamespace(solver_status="degraded"))
    optimal = SimpleNamespace(
        allocation=SimpleNamespace(solver_status="optimal"))
    assert _finish_outcome(0, point, 1, [optimal, degraded],
                           None).status == "degraded"
    assert _finish_outcome(0, point, 2, [optimal], None).status \
        == "retried"
    assert _finish_outcome(0, point, 1, [optimal], None).status == "ok"
    assert registry.value("resilience.degraded_points") == 1
