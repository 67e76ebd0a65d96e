"""Live progress: the parent-fed bus, stall detection, watch, scrape."""

from __future__ import annotations

import io
import os
import tempfile
import threading
import time

import pytest

from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.engine.store import ArtifactStore, set_default_store
from repro.obs.live import (
    ProgressBus,
    WatchRenderer,
    active_sink,
    format_watch_line,
    note_phase,
    note_total,
    note_unit_finished,
    note_unit_started,
    render_prometheus,
    set_progress_sink,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan, set_fault_plan
from repro.resilience.healing import RetryPolicy, map_points_healed


@pytest.fixture
def bus():
    """A ProgressBus installed as the active sink, restored afterwards."""
    active = ProgressBus(run_id="testrun")
    previous = set_progress_sink(active)
    yield active
    set_progress_sink(previous)


@pytest.fixture
def shared_cache(tmp_path):
    """A disk-backed default store the worker pool can share."""
    previous = set_default_store(
        ArtifactStore(cache_dir=tmp_path / "cache")
    )
    yield
    set_default_store(previous)


class TestProgressBus:
    def test_disabled_helpers_are_noops(self):
        assert active_sink() is None
        note_total(3)
        note_unit_started("x")
        note_unit_finished("x")
        note_phase("p")

    def test_set_sink_returns_previous(self, bus):
        assert set_progress_sink(None) is bus
        assert set_progress_sink(bus) is None

    def test_unit_accounting(self, bus):
        note_total(4)
        note_unit_started("tiny/casa@64")
        snapshot = bus.snapshot()
        assert (snapshot.done, snapshot.total) == (0, 4)
        assert snapshot.workers[0].current == "tiny/casa@64"
        assert snapshot.workers[0].status == "ok"
        note_unit_finished("tiny/casa@64")
        snapshot = bus.snapshot()
        assert snapshot.done == 1
        assert snapshot.workers[0].status == "idle"
        assert snapshot.rate_ups > 0
        assert snapshot.eta_s is not None and snapshot.eta_s > 0

    def test_eta_zero_when_complete(self, bus):
        note_total(1)
        note_unit_finished("u")
        assert bus.snapshot().eta_s == 0.0

    def test_phase_overrides_stage(self, bus):
        bus.stage("result")
        assert bus.snapshot().stage == "result"
        note_phase("ilp.solve")
        assert bus.snapshot().stage == "ilp.solve"

    def test_finishing_another_unit_keeps_the_current_one(self, bus):
        note_unit_started("waited-on")
        note_unit_finished("exhausted-elsewhere")
        snapshot = bus.snapshot()
        assert snapshot.done == 1
        assert snapshot.workers[0].current == "waited-on"

    def test_serial_stall_detection(self):
        bus = ProgressBus(stall_timeout=0.01)
        bus.unit_started("slowpoke")
        time.sleep(0.05)
        snapshot = bus.snapshot()
        assert snapshot.workers[0].status == "stalled"
        assert [w.name for w in snapshot.stalled] == ["main"]

    def test_percentiles_from_registry(self, bus):
        registry = MetricsRegistry()
        registry.histogram("point.evaluate.seconds").observe(0.5)
        registry.histogram("not.a.duration").observe(9.0)
        percentiles = bus.snapshot(registry).percentiles
        assert "point.evaluate" in percentiles
        assert "not.a.duration" not in percentiles
        assert percentiles["point.evaluate"]["count"] == 1


class TestWatchLine:
    def _snapshot(self, bus, registry=None):
        return bus.snapshot(registry)

    def test_format_contains_progress_eta_and_run_id(self, bus):
        note_total(2)
        note_unit_finished("a")
        registry = MetricsRegistry()
        registry.histogram("point.evaluate.seconds").observe(0.5)
        line = format_watch_line(bus.snapshot(registry), tick=1)
        assert "1/2 (50%)" in line
        assert "eta" in line
        assert "workers 1 ok" in line
        assert "p50" in line and "p99" in line
        assert "run testrun" in line

    def test_renderer_paints_carriage_return_line(self, bus):
        stream = io.StringIO()
        renderer = WatchRenderer(bus, stream=stream, interval=0.01)
        renderer.start()
        time.sleep(0.05)
        renderer.stop()
        output = stream.getvalue()
        assert output.startswith("\r")
        assert output.endswith("\n")
        assert "eta" in output


class TestPrometheusRender:
    def test_summaries_and_counters(self, bus):
        registry = MetricsRegistry()
        registry.histogram("point.evaluate.seconds").observe(0.5)
        registry.counter("engine.cache.hits").inc(3)
        text = render_prometheus(bus.snapshot(registry))
        assert "# TYPE repro_point_evaluate_seconds summary" in text
        assert 'repro_point_evaluate_seconds{quantile="0.99"}' in text
        assert "repro_point_evaluate_seconds_count 1" in text
        assert "repro_engine_cache_hits_total 3" in text
        assert 'repro_worker_stalled{worker="main"} 0' in text


def _chunks(*sizes):
    return [GridChunk("tiny", (size,), "casa", scale=0.2)
            for size in sizes]


@pytest.fixture
def fault_plan():
    """Install a fault plan from a spec; the previous plan is restored."""
    previous = []

    def install(spec):
        previous.append(set_fault_plan(FaultPlan.from_spec(spec)))

    yield install
    if previous:
        set_fault_plan(previous[0])


class TestEndToEnd:
    def test_sweep_feeds_bus_and_converges(self, shared_cache, bus):
        points = [GridChunk("tiny", (64,), "casa", scale=0.2),
                  GridChunk("tiny", (128,), "casa", scale=0.2)]
        results = map_points(points, jobs=1)
        assert len(results) == 2
        snapshot = bus.snapshot()
        assert snapshot.done == 2
        assert snapshot.total == 2

    def test_pooled_map_counts_each_unit_once(self, shared_cache, bus):
        results = map_points(_chunks(64, 128), jobs=2)
        assert len(results) == 2
        snapshot = bus.snapshot()
        assert snapshot.done == snapshot.total == 2
        assert snapshot.workers[0].status == "idle"

    def test_serial_retry_counts_the_unit_once(self, bus, fault_plan):
        """A failed attempt is not a finished unit; the outcome is."""
        fault_plan("worker.exec:error@nth=1")
        healed = map_points_healed(_chunks(64, 128), jobs=1,
                                   policy=RetryPolicy(backoff_s=0.001))
        assert healed.counts() == {"retried": 1, "ok": 1}
        snapshot = bus.snapshot()
        assert snapshot.done == snapshot.total == 2

    def test_failed_pool_restart_counts_each_unit_once(
            self, shared_cache, bus, fault_plan):
        """A crash whose pool restart fails heals in-process, once."""
        before = set(os.listdir(tempfile.gettempdir()))
        fault_plan("worker.exec:crash@nth=1;worker.spawn:error@nth=2")
        healed = map_points_healed(_chunks(64, 128, 256), jobs=2,
                                   policy=RetryPolicy(backoff_s=0.001))
        assert healed.ok
        snapshot = bus.snapshot()
        assert snapshot.done == snapshot.total == 3
        leaked = {name for name in os.listdir(tempfile.gettempdir())
                  if name.startswith("repro-hb-")} - before
        assert not leaked

    @staticmethod
    def _run_with_a_sleeping_unit(jobs: int) -> None:
        """A sleeping unit shows up as stalled while the run finishes."""
        bus = ProgressBus(stall_timeout=0.05)
        previous_sink = set_progress_sink(bus)
        previous_plan = set_fault_plan(
            FaultPlan.from_spec("worker.exec:sleep=0.3@nth=1")
        )
        observed: list[str] = []
        stop = threading.Event()

        def poll():
            while not stop.wait(0.02):
                for worker in bus.snapshot().stalled:
                    observed.append(worker.name)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            results = map_points(_chunks(64, 128), jobs=jobs)
        finally:
            stop.set()
            poller.join(timeout=5.0)
            set_fault_plan(previous_plan)
            set_progress_sink(previous_sink)
        assert len(results) == 2, "run must still converge"
        assert "main" in observed, "stall must be visible on the bus"
        snapshot = bus.snapshot()
        assert snapshot.done == snapshot.total == 2

    def test_fault_injected_stall_is_flagged_and_run_converges(
            self, shared_cache):
        self._run_with_a_sleeping_unit(jobs=1)

    def test_fault_injected_stall_is_flagged_in_a_pooled_run(
            self, shared_cache):
        """Pooled, the parent's entry is flagged: it waits on the unit."""
        self._run_with_a_sleeping_unit(jobs=2)
