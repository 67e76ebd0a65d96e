"""Metrics registry: named counters, gauges and histograms.

Instrumented code reports *what happened* — cache hits simulated,
ILP solves run, branch-and-bound nodes explored — through
three primitive types:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-written value (``set``);
* :class:`Histogram` — count/sum/min/max of observed values
  (``observe``) plus a fixed log-bucket sketch that answers
  streaming percentile queries (:meth:`Histogram.percentile`).

A :class:`MetricsRegistry` creates metrics on first use, snapshots
them as a plain JSON-able dict (:meth:`MetricsRegistry.snapshot`), and
merges snapshots from worker processes (:meth:`MetricsRegistry.merge`)
— counters and histograms accumulate, gauges take the incoming value.

:func:`render_prometheus` renders a registry in Prometheus text
exposition format (the body of ``repro serve``'s ``/metrics``).

Like tracing, metrics are disabled by default: the module-level
helpers :func:`inc`, :func:`set_gauge` and :func:`observe` write to
the *active* registry installed via :func:`set_registry` and cost one
global read and one comparison when none is installed.  The engine's
:class:`~repro.engine.runner.RunRecord` keeps its per-run stage
counters in a private, always-on registry of its own — same machinery,
different lifetime.
"""

from __future__ import annotations

import math
import threading
from typing import Any

#: Snapshot ``type`` tags, one per metric class.
METRIC_TYPES = ("counter", "gauge", "histogram")

#: Suffix of the duration histograms :func:`render_prometheus` exposes.
SECONDS_SUFFIX = ".seconds"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to the total."""
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-written value (e.g. a size or a configuration knob)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {"type": "gauge", "value": self.value}


#: Natural log of the histogram bucket base ``2**(1/8)`` (≈ 1.0905),
#: giving ~9% relative resolution per bucket across the full float range.
BUCKET_LOG_BASE = math.log(2.0) / 8.0


class Histogram:
    """Count/sum/min/max summary plus a log-bucket percentile sketch.

    Positive observations land in fixed geometric buckets of base
    ``2**(1/8)`` (index ``floor(log(v) / BUCKET_LOG_BASE)``); zero and
    negative values are tallied separately in ``zeros``.  Because the
    bucket for a value is a pure function of the value, merging shard
    histograms (worker processes) yields *exactly* the same sketch as
    observing every value in one registry — percentiles are mergeable.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "zeros",
                 "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.zeros = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            index = math.floor(math.log(value) / BUCKET_LOG_BASE)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        """Mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, data: dict[str, Any]) -> None:
        """Fold a histogram :meth:`snapshot` dict into this histogram.

        Empty snapshots are no-ops.  Snapshots that predate the
        percentile sketch carry no ``zeros``/``buckets`` keys; their
        count/total/min/max still fold in.
        """
        count = int(data["count"])
        if not count:
            return
        self.count += count
        self.total += float(data["total"])
        self.minimum = min(self.minimum, float(data["min"]))
        self.maximum = max(self.maximum, float(data["max"]))
        self.zeros += int(data.get("zeros", 0))
        for raw_index, n in data.get("buckets", {}).items():
            index = int(raw_index)
            self.buckets[index] = self.buckets.get(index, 0) + int(n)

    def percentile(self, q: float) -> float:
        """The *q*-quantile (``0 <= q <= 1``) from the bucket sketch.

        Returns the geometric midpoint of the bucket holding the
        rank-``ceil(q * count)`` observation, clamped to the exact
        observed ``[min, max]`` range; 0 when the histogram is empty.
        Accurate to the ~9% bucket resolution.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.zeros
        if rank <= cumulative:
            return min(self.minimum, 0.0)
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank <= cumulative:
                midpoint = math.exp((index + 0.5) * BUCKET_LOG_BASE)
                return min(max(midpoint, self.minimum), self.maximum)
        return self.maximum

    def summary(self) -> dict[str, float]:
        """Count/mean/min/max plus p50/p90/p99 as a plain dict."""
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict form for :meth:`MetricsRegistry.snapshot`."""
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "zeros": self.zeros,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Thread-safe create-on-first-use registry of named metrics.

    Metric names are dotted, lower-case paths (``ilp.nodes``,
    ``sim.cache_misses``); ``docs/OBSERVABILITY.md`` lists the
    conventions and the names the built-in instrumentation emits.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __getstate__(self) -> dict[str, Any]:
        """Pickle as a snapshot (locks do not cross processes)."""
        return {"snapshot": self.snapshot()}

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Rebuild from a snapshot with a fresh lock."""
        self.__init__()
        self.merge(state["snapshot"])

    def _get(self, name: str, factory: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name*, created on first use."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name*, created on first use."""
        return self._get(name, Histogram)

    def names(self) -> list[str]:
        """Sorted names of every registered metric."""
        with self._lock:
            return sorted(self._metrics)

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter/gauge value (or histogram total) of *name*.

        Returns *default* when the metric does not exist — convenient
        for reports over runs that skipped an instrumented path.
        """
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def counters(self) -> dict[str, float]:
        """Name → value of every registered counter, sorted by name."""
        with self._lock:
            return {
                name: metric.value
                for name, metric in sorted(self._metrics.items())
                if isinstance(metric, Counter)
            }

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All metrics as ``{name: {"type": ..., ...}}`` (JSON-able)."""
        with self._lock:
            return {
                name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())
            }

    def merge(self, snapshot: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins, matching their semantics).
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(float(data["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(data["value"]))
            elif kind == "histogram":
                self.histogram(name).merge(data)
            else:
                raise ValueError(
                    f"unknown metric type {kind!r} for {name!r}"
                )

    def render(self) -> str:
        """Human-readable table of every metric, sorted by name."""
        rows = []
        for name, data in self.snapshot().items():
            if data["type"] == "histogram":
                metric = self._metrics[name]
                detail = (
                    f"count={data['count']} total={data['total']:g} "
                    f"min={data['min']:g} max={data['max']:g} "
                    f"p50={metric.percentile(0.5):g} "
                    f"p99={metric.percentile(0.99):g}"
                )
            else:
                detail = f"{data['value']:g}"
            rows.append(f"  {name:<32} {detail}")
        if not rows:
            return "metrics: (none recorded)"
        return "\n".join(["metrics:"] + rows)


# -- process-wide active registry ---------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None
                 ) -> MetricsRegistry | None:
    """Install (or, with ``None``, remove) the active registry.

    Returns the previously active registry so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def active_registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` when metrics are disabled."""
    return _ACTIVE


def metrics_enabled() -> bool:
    """Whether a registry is currently installed."""
    return _ACTIVE is not None


def inc(name: str, amount: float = 1.0) -> None:
    """Increment counter *name* on the active registry (no-op if none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge *name* on the active registry (no-op if none)."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Observe *value* on histogram *name* (no-op if none active)."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name).observe(value)


# -- Prometheus text exposition ------------------------------------------------

def _prom_name(name: str) -> str:
    return "repro_" + "".join(c if c.isalnum() else "_" for c in name)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render *registry* in Prometheus text exposition format.

    Counters become ``repro_<name>_total`` counters, gauges
    ``repro_<name>`` gauges, and non-empty ``*.seconds`` histograms
    summaries with p50/p90/p99 quantile samples plus ``_sum`` and
    ``_count``; dots in names become underscores.  Other histograms
    are left out.  Reads one consistent :meth:`MetricsRegistry.snapshot`,
    so the registry may keep observing meanwhile.
    """
    lines: list[str] = []
    for name, data in registry.snapshot().items():
        base = _prom_name(name)
        kind = data["type"]
        if kind == "counter":
            lines += [f"# TYPE {base}_total counter",
                      f"{base}_total {data['value']:g}"]
        elif kind == "gauge":
            lines += [f"# TYPE {base} gauge", f"{base} {data['value']:g}"]
        elif name.endswith(SECONDS_SUFFIX) and data["count"]:
            histogram = Histogram()
            histogram.merge(data)
            lines.append(f"# TYPE {base} summary")
            for quantile in (0.5, 0.9, 0.99):
                lines.append(f'{base}{{quantile="{quantile:g}"}} '
                             f"{histogram.percentile(quantile):.6g}")
            lines += [f"{base}_sum {histogram.total:.6g}",
                      f"{base}_count {histogram.count}"]
    return "\n".join(lines) + "\n"
