"""Live telemetry: progress bus, heartbeats, stall detection, exports."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.engine.store import ArtifactStore, set_default_store
from repro.obs.live import (
    HeartbeatWriter,
    ProgressBus,
    TelemetryWriter,
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
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience.faults import FaultPlan, set_fault_plan


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
        note_unit_finished("x", 0.1)
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
        note_unit_finished("tiny/casa@64", 0.01)
        snapshot = bus.snapshot()
        assert snapshot.done == 1
        assert snapshot.workers[0].status == "idle"
        assert snapshot.rate_ups > 0
        assert snapshot.eta_s is not None and snapshot.eta_s > 0

    def test_eta_zero_when_complete(self, bus):
        note_total(1)
        note_unit_finished("u", 0.0)
        assert bus.snapshot().eta_s == 0.0

    def test_phase_overrides_stage(self, bus):
        bus.stage("result")
        assert bus.snapshot().stage == "result"
        note_phase("ilp.solve")
        assert bus.snapshot().stage == "ilp.solve"

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


class TestHeartbeats:
    def test_beat_round_trip(self, tmp_path, bus):
        writer = HeartbeatWriter(str(tmp_path), name="w0")
        writer.unit_started("tiny/casa@64")
        bus.attach_heartbeat_dir(str(tmp_path))
        snapshot = bus.snapshot()
        names = [w.name for w in snapshot.workers]
        assert names == ["main", "w0"]
        assert snapshot.workers[1].current == "tiny/casa@64"
        assert snapshot.workers[1].status == "ok"

    def test_beat_done_counts_add_to_progress(self, tmp_path, bus):
        writer = HeartbeatWriter(str(tmp_path), name="w0")
        writer.unit_started("a")
        writer.unit_finished("a", 0.01)
        bus.attach_heartbeat_dir(str(tmp_path))
        assert bus.snapshot().done == 1

    def test_stale_beat_unit_is_flagged_stalled(self, tmp_path):
        bus = ProgressBus(stall_timeout=0.01)
        writer = HeartbeatWriter(str(tmp_path), name="w0")
        writer.unit_started("stuck")
        time.sleep(0.05)
        bus.attach_heartbeat_dir(str(tmp_path))
        snapshot = bus.snapshot()
        assert snapshot.workers[1].status == "stalled"
        assert "STALLED" in format_watch_line(snapshot)

    def test_detach_keeps_progress_monotone(self, tmp_path, bus):
        writer = HeartbeatWriter(str(tmp_path), name="w0")
        writer.unit_started("a")
        writer.unit_finished("a", 0.01)
        bus.attach_heartbeat_dir(str(tmp_path))
        before = bus.snapshot().done
        bus.detach_heartbeat_dir()
        # The beat files are gone from view, but its done-count moved
        # into the bus's own counter.
        assert bus.snapshot().done == before == 1

    def test_worker_histograms_feed_live_percentiles(self, tmp_path, bus):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            registry.histogram("point.evaluate.seconds").observe(0.25)
            writer = HeartbeatWriter(str(tmp_path), name="w0")
            writer.unit_started("a")
            writer.unit_finished("a", 0.25)
        finally:
            set_registry(previous)
        bus.attach_heartbeat_dir(str(tmp_path))
        # No parent registry passed: the percentiles come purely from
        # the worker's heartbeat payload.
        percentiles = bus.snapshot().percentiles
        assert percentiles["point.evaluate"]["count"] == 1
        # After finalize, heartbeat histograms no longer contribute
        # (the parent registry would hold the merged truth).
        bus.finalize_workers()
        assert bus.snapshot().percentiles == {}


class TestWatchLine:
    def _snapshot(self, bus, registry=None):
        return bus.snapshot(registry)

    def test_format_contains_progress_eta_and_run_id(self, bus):
        note_total(2)
        note_unit_finished("a", 0.01)
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


class TestTelemetryWriter:
    def test_at_least_two_monotone_snapshots(self, tmp_path, bus):
        path = tmp_path / "telemetry.jsonl"
        note_total(2)
        writer = TelemetryWriter(bus, str(path), interval=0.01)
        writer.start()
        note_unit_finished("a", 0.01)
        time.sleep(0.05)
        note_unit_finished("b", 0.01)
        writer.stop()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert len(records) >= 2
        assert writer.snapshots_written == len(records)
        assert all(r["kind"] == "snapshot" for r in records)
        dones = [r["done"] for r in records]
        assert dones == sorted(dones), "done-count must be monotone"
        times = [r["ts"] for r in records]
        assert times == sorted(times)
        assert records[-1]["done"] == 2
        assert records[-1]["run_id"] == "testrun"

    def test_prometheus_file_rendered(self, tmp_path, bus):
        prom = tmp_path / "metrics.prom"
        writer = TelemetryWriter(bus, None, prom_path=str(prom),
                                 interval=5.0)
        writer.start()
        writer.stop()
        text = prom.read_text()
        assert "repro_units_done" in text
        assert 'repro_run_info{run_id="testrun"}' in text


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


class TestEndToEnd:
    def test_sweep_feeds_bus_and_converges(self, shared_cache, bus):
        points = [GridChunk("tiny", (64,), "casa", scale=0.2),
                  GridChunk("tiny", (128,), "casa", scale=0.2)]
        results = map_points(points, jobs=1)
        assert len(results) == 2
        snapshot = bus.snapshot()
        assert snapshot.done == 2
        assert snapshot.total == 2

    def test_fault_injected_stall_is_flagged_and_run_converges(
            self, shared_cache):
        """A sleeping worker shows up as stalled while the run finishes."""
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
            results = map_points(
                [GridChunk("tiny", (64,), "casa", scale=0.2)], jobs=1)
        finally:
            stop.set()
            poller.join(timeout=5.0)
            set_fault_plan(previous_plan)
            set_progress_sink(previous_sink)
        assert len(results) == 1, "run must still converge"
        assert "main" in observed, "stall must be visible on the bus"
