"""Live progress: the progress bus and its ``--watch`` / scrape consumers.

Post-hoc spans and metrics answer "what happened"; this module answers
"what is happening *right now*" for multi-minute sweeps:

* a **progress-sink protocol** — module-level :func:`note_unit_started`
  / :func:`note_unit_finished` / :func:`note_phase` / :func:`note_total`
  helpers that instrumented code calls unconditionally; like spans and
  metrics they cost one global read and one ``None`` comparison when no
  sink is installed (:func:`set_progress_sink`);
* :class:`ProgressBus` — the one sink, in the parent process: thread-safe
  unit done/total accounting, the current engine stage, and liveness of
  the unit the parent is running or waiting on, with stall detection
  after a configurable timeout.  Pool workers report nothing; the
  parent marks each unit finished once, when its outcome is final;
* consumers of :class:`ProgressSnapshot` — :class:`WatchRenderer`
  (single-line in-terminal progress + ETA, ``--watch``) and
  :func:`render_prometheus` (the text exposition ``repro serve``
  returns from ``/metrics``).

Live percentiles come from the run's active
:class:`~repro.obs.metrics.MetricsRegistry`; pooled workers'
observations join it when their results merge back.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time
from typing import Any, TextIO

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "WorkerHealth",
    "ProgressSnapshot",
    "ProgressBus",
    "WatchRenderer",
    "set_progress_sink",
    "active_sink",
    "note_unit_started",
    "note_unit_finished",
    "note_phase",
    "note_total",
    "render_prometheus",
    "format_watch_line",
]

#: Default seconds the current unit may run (or be waited on) before it
#: is flagged as stalled on the bus.
DEFAULT_STALL_TIMEOUT = 30.0

#: Suffix identifying duration histograms surfaced as live percentiles.
SECONDS_SUFFIX = ".seconds"


@dataclasses.dataclass
class WorkerHealth:
    """Liveness of the parent process (``main``) and its current unit."""

    name: str
    units_done: int
    current: str | None
    busy_s: float
    status: str  # "ok" | "stalled" | "idle"

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for the ``/healthz`` body."""
        return {
            "name": self.name,
            "units_done": self.units_done,
            "current": self.current,
            "busy_s": round(self.busy_s, 6),
            "status": self.status,
        }


@dataclasses.dataclass
class ProgressSnapshot:
    """One point-in-time view of a run's progress and health."""

    ts: float
    run_id: str | None
    stage: str | None
    done: int
    total: int
    elapsed_s: float
    rate_ups: float
    eta_s: float | None
    workers: list[WorkerHealth]
    percentiles: dict[str, dict[str, float]]
    counters: dict[str, float]

    @property
    def stalled(self) -> list[WorkerHealth]:
        """The workers currently flagged as stalled."""
        return [w for w in self.workers if w.status == "stalled"]

    def to_json(self) -> dict[str, Any]:
        """JSON-able dict, the body of serve's ``/healthz``."""
        return {
            "kind": "snapshot",
            "ts": round(self.ts, 6),
            "run_id": self.run_id,
            "stage": self.stage,
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(self.elapsed_s, 6),
            "rate_ups": round(self.rate_ups, 6),
            "eta_s": None if self.eta_s is None else round(self.eta_s, 3),
            "workers": [w.to_json() for w in self.workers],
            "percentiles": self.percentiles,
            "counters": self.counters,
        }


def _summaries_from_registry(registry: MetricsRegistry
                             ) -> dict[str, dict[str, float]]:
    """p50/p90/p99/max summaries of every ``*.seconds`` histogram."""
    out: dict[str, dict[str, float]] = {}
    for name in registry.names():
        if not name.endswith(SECONDS_SUFFIX):
            continue
        histogram = registry.histogram(name)
        if not histogram.count:
            continue
        summary = histogram.summary()
        out[name[: -len(SECONDS_SUFFIX)]] = {
            key: round(value, 6) for key, value in summary.items()
        }
    return out


class ProgressBus:
    """Thread-safe progress accounting for one run (parent process).

    Engine code reports through the module-level sink helpers; live
    consumers poll :meth:`snapshot` from their own threads.  The
    parent process is the only reporter: pooled runs mark a unit
    started when the parent begins waiting for its result, so the one
    current unit is also what stall detection watches.
    """

    def __init__(self, run_id: str | None = None,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT) -> None:
        self.run_id = run_id
        self.stall_timeout = stall_timeout
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._done = 0
        self._total = 0
        self._stage: str | None = None
        self._phase: str | None = None
        self._current: str | None = None
        self._current_since = 0.0

    # -- sink protocol ---------------------------------------------------

    def add_total(self, count: int) -> None:
        """Register *count* more scheduled units."""
        with self._lock:
            self._total += count

    def unit_started(self, label: str) -> None:
        """Mark *label* as the unit this process now runs or waits on."""
        with self._lock:
            self._current = label
            self._current_since = time.monotonic()

    def unit_finished(self, label: str) -> None:
        """Mark unit *label* done; its outcome is final."""
        with self._lock:
            self._done += 1
            if self._current == label:
                self._current = None

    def phase(self, name: str) -> None:
        """Record the fine-grained activity inside the current unit."""
        self._phase = name

    def stage(self, name: str) -> None:
        """Record the coarse engine stage currently running."""
        self._stage = name

    # -- snapshots -------------------------------------------------------

    def snapshot(self, registry: MetricsRegistry | None = None
                 ) -> ProgressSnapshot:
        """Current progress, liveness and live percentiles.

        *registry* is the run's active metrics registry; pooled
        workers' observations join it when their results merge back.
        """
        now_mono = time.monotonic()
        with self._lock:
            done = self._done
            total = self._total
            stage = self._phase or self._stage
            current = self._current
            current_since = self._current_since
            elapsed = now_mono - self._started

        busy = 0.0 if current is None else now_mono - current_since
        status = "idle" if current is None else (
            "stalled" if busy > self.stall_timeout else "ok")
        workers = [WorkerHealth("main", done, current, busy, status)]

        # A copy, so percentiles are read from a consistent state while
        # the run keeps observing into *registry*.
        display = MetricsRegistry()
        if registry is not None:
            display.merge(registry.snapshot())
        rate = done / elapsed if elapsed > 0 and done else 0.0
        if total > done and rate > 0:
            eta: float | None = (total - done) / rate
        elif total and done >= total:
            eta = 0.0
        else:
            eta = None
        return ProgressSnapshot(
            ts=time.time(), run_id=self.run_id, stage=stage,
            done=done, total=total, elapsed_s=elapsed, rate_ups=rate,
            eta_s=eta, workers=workers,
            percentiles=_summaries_from_registry(display),
            counters=display.counters(),
        )


# -- process-wide active sink --------------------------------------------------

_SINK: ProgressBus | None = None


def set_progress_sink(sink: ProgressBus | None) -> ProgressBus | None:
    """Install (or, with ``None``, remove) the active progress sink.

    Returns the previously active sink so callers can restore it.
    """
    global _SINK
    previous = _SINK
    _SINK = sink
    return previous


def active_sink() -> ProgressBus | None:
    """The active progress sink, or ``None`` when live telemetry is off."""
    return _SINK


def note_unit_started(label: str) -> None:
    """Report a unit starting (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.unit_started(label)


def note_unit_finished(label: str) -> None:
    """Report a unit's final outcome (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.unit_finished(label)


def note_phase(name: str) -> None:
    """Report fine-grained activity (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.phase(name)


def note_total(count: int) -> None:
    """Register scheduled units (no-op when no sink is installed)."""
    sink = _SINK
    if sink is not None:
        sink.add_total(count)


# -- consumers -----------------------------------------------------------------

def _fmt_seconds(value: float | None) -> str:
    if value is None or not math.isfinite(value):
        return "?"
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.0f}s" if value >= 10 else f"{value:.1f}s"


_SPINNER = "|/-\\"


def format_watch_line(snapshot: ProgressSnapshot, tick: int = 0) -> str:
    """Render one in-terminal status line from *snapshot*.

    Honest under ``--jobs N``: a unit counts as done once its result
    reached the parent, not when it was scheduled.
    """
    spin = _SPINNER[tick % len(_SPINNER)]
    if snapshot.total:
        pct = 100.0 * snapshot.done / snapshot.total
        progress = f"{snapshot.done}/{snapshot.total} ({pct:.0f}%)"
    else:
        progress = f"{snapshot.done} units"
    parts = [spin, progress]
    if snapshot.stage:
        parts.append(snapshot.stage)
    if snapshot.rate_ups:
        parts.append(f"{snapshot.rate_ups:.2f} u/s")
    parts.append(f"eta {_fmt_seconds(snapshot.eta_s)}")
    stalled = snapshot.stalled
    ok = len(snapshot.workers) - len(stalled)
    health = f"workers {ok} ok"
    if stalled:
        health += f", {len(stalled)} STALLED ({stalled[0].name})"
    parts.append(health)
    point = snapshot.percentiles.get("point.evaluate")
    if point:
        parts.append(f"p50 {point['p50']:.3g}s p99 {point['p99']:.3g}s")
    if snapshot.run_id:
        parts.append(f"run {snapshot.run_id}")
    return " | ".join(parts)


class WatchRenderer:
    """Background thread painting a single live status line (``--watch``)."""

    def __init__(self, bus: ProgressBus,
                 registry: MetricsRegistry | None = None,
                 stream: TextIO | None = None,
                 interval: float = 0.25) -> None:
        self.bus = bus
        self.registry = registry
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._tick = 0
        self._width = 0

    def _paint(self) -> None:
        line = format_watch_line(self.bus.snapshot(self.registry),
                                 self._tick)
        self._tick += 1
        pad = max(0, self._width - len(line))
        self._width = len(line)
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):
            self._stop.set()  # stream closed under us: stop painting

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._paint()

    def start(self) -> None:
        """Paint once and start the refresh thread."""
        self._paint()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-watch", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Paint the final state and release the line."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._paint()
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def render_prometheus(snapshot: ProgressSnapshot) -> str:
    """Render *snapshot* in Prometheus text exposition format.

    Progress and worker health become gauges; ``*.seconds`` duration
    histograms become summaries with p50/p90/p99 quantile samples; run
    counters become ``repro_<name>_total`` counters.
    """
    run = snapshot.run_id or ""
    lines = [
        "# TYPE repro_run_info gauge",
        f'repro_run_info{{run_id="{run}"}} 1',
        "# TYPE repro_units_done gauge",
        f"repro_units_done {snapshot.done}",
        "# TYPE repro_units_total gauge",
        f"repro_units_total {snapshot.total}",
        "# TYPE repro_elapsed_seconds gauge",
        f"repro_elapsed_seconds {snapshot.elapsed_s:.6f}",
    ]
    if snapshot.eta_s is not None:
        lines += ["# TYPE repro_eta_seconds gauge",
                  f"repro_eta_seconds {snapshot.eta_s:.6f}"]
    lines.append("# TYPE repro_worker_stalled gauge")
    for worker in snapshot.workers:
        flag = 1 if worker.status == "stalled" else 0
        lines.append(
            f'repro_worker_stalled{{worker="{worker.name}"}} {flag}')
    for metric, summary in sorted(snapshot.percentiles.items()):
        base = f"repro_{_prom_name(metric)}_seconds"
        lines.append(f"# TYPE {base} summary")
        for quantile in ("0.5", "0.9", "0.99"):
            key = "p" + str(int(float(quantile) * 100))
            lines.append(
                f'{base}{{quantile="{quantile}"}} {summary[key]:.6g}')
        lines.append(f"{base}_sum {summary['total']:.6g}")
        lines.append(f"{base}_count {int(summary['count'])}")
    for name, value in sorted(snapshot.counters.items()):
        base = f"repro_{_prom_name(name)}_total"
        lines.append(f"# TYPE {base} counter")
        lines.append(f"{base} {value:g}")
    return "\n".join(lines) + "\n"
