"""Metric names, units and the result of one benchmark run."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from common import CALIBRATION_REF_S

#: End-to-end metrics every workload reports with tracing off (the
#: JSON result line carries exactly these).  For the serve workload a
#: unit of work is one request: ``wall_s`` is its median latency and
#: ``cpu_s`` the daemon's CPU time per completed request.  Other
#: metrics (``rps``, latency percentiles) are printed, not in the JSON.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Self time (s) summed per op, or counts, from the traced run.
CLI_LAYERS: tuple[tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    ("program.execute_s", "s"),
    ("traces.generate_s", "s"),
    ("memory.kernel.compile_s", "s"),
    ("memory.kernel.compile.calls", "count"),
    ("memory.kernel.replay_s", "s"),
    ("memory.simulate_s", "s"),
    ("memory.simulate.calls", "count"),
    ("core.conflict_graph_s", "s"),
    ("core.casa_s", "s"),
    ("core.steinke_s", "s"),
    ("core.ross_s", "s"),
    ("ilp.solve_s", "s"),
    ("ilp.solve.calls", "count"),
    ("ilp.nodes", "count"),
    ("engine.resolve_s", "s"),
    ("engine.hits", "count"),
    ("engine.computes", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.store.get_s", "s"),
    ("engine.store.put_s", "s"),
    ("evaluation.render_s", "s"),
    ("untraced_s", "s"),
)

#: Per-request serve layers (ms percentiles) and the batch size.
SERVE_LAYERS: tuple[tuple[str, str], ...] = tuple(
    (f"serve.{layer}_ms.{q}", "ms")
    for layer in ("parse", "admit", "queue", "compute", "respond")
    for q in ("p50", "p99")
) + (("serve.batch.size", "count"),)

#: Every per-layer metric, in the order a traced run prints them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    CLI_LAYERS + SERVE_LAYERS + (("trace.overhead_s", "s"),))


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, tuple[str, list[float]]] = field(
        default_factory=dict)
    values: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    scaled: set[str] = field(default_factory=set)

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation; record *message* if not *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def add(self, name: str, value: float, unit: str) -> None:
        """One sample of a metric reported as the median of its samples."""
        self.samples.setdefault(name, (unit, []))[1].append(value)

    def set(self, name: str, value: float, unit: str, count: int) -> None:
        """A metric computed from *count* samples elsewhere."""
        self.values[name] = (value, unit, count)

    def add_scaled(self, name: str, raw: float) -> None:
        """One raw sample of CPU-bound time ``<name>_s``, reported scaled.

        The raw median is printed as ``<name>_raw_s``; ``<name>_s`` is
        that median times :meth:`host_factor`.
        """
        self.add(f"{name}_raw_s", raw, "s")
        self.scaled.add(name)

    def host_factor(self) -> float:
        """Reference over the run's median calibration time."""
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    def add_layer(self, name: str, value: float, unit: str,
                  count: int) -> None:
        """One per-layer metric from *count* traced samples."""
        self.layers[name] = (value, unit, count)

    def end_to_end(self) -> dict[str, tuple[float, str, int]]:
        """Every end-to-end value: medians of samples, then set values."""
        merged = {name: (statistics.median(values), unit, len(values))
                  for name, (unit, values) in self.samples.items()
                  if values}
        merged.update(self.values)
        for name in self.scaled:
            raw, unit, count = merged[f"{name}_raw_s"]
            merged[f"{name}_s"] = (raw * self.host_factor(), unit, count)
        return merged

    def lines(self, trace: bool) -> list[str]:
        """Human-readable report: every metric with unit and count."""
        out = [f"failed_ratio {self.failed}/{self.attempted} = "
               f"{self.failed / max(self.attempted, 1):.4f}"]
        table = self.layers if trace else self.end_to_end()
        if self.calibrations and not trace:
            out.append(f"host_factor {self.host_factor():.6g} "
                       f"(n={len(self.calibrations)})")
        for name, (value, unit, count) in sorted(table.items()):
            out.append(f"{name} {value:.6g} {unit} (n={count})")
        out.extend(f"error: {error}" for error in self.errors[:10])
        return out

    def result(self, trace: bool) -> dict:
        """The JSON result line of the run."""
        if trace:
            names = PER_LAYER
            table = self.layers
        else:
            names = END_TO_END
            table = self.end_to_end()
        metrics = {}
        for name, unit in names:
            value = table.get(name, (0.0,))[0]
            metrics[name] = {"value": value, "unit": unit}
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}
