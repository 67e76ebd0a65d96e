"""Observability: tracing, metrics, events, reports, logs and profiles.

Seven small modules turn the experiment engine from a black box into a
design-space-exploration tool you can see inside:

* :mod:`repro.obs.trace` — nestable spans with wall/CPU time and
  attributes, collected thread-safely and exported as Chrome-trace
  JSON (``chrome://tracing`` / Perfetto) or JSONL event logs;
* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  histograms (simulated cache hits, ILP solves, branch-and-bound
  nodes...) with mergeable log-bucket percentile sketches,
  snapshot/merge for worker processes, and the Prometheus text
  rendering behind ``repro serve``'s ``/metrics``;
* :mod:`repro.obs.events` — structured cache eviction/miss event
  streams (bounded ring + reservoir sample) and the replay oracle that
  cross-checks the conflict graph's ``m_ij`` (``repro audit``);
* :mod:`repro.obs.report` — per-run reports (stage timings, cache hit
  rates, ILP solves, percentile tables, slowest design points)
  rendered from a ``--trace`` run file;
* :mod:`repro.obs.history` — JSONL benchmark snapshots and baseline
  comparison (``repro bench record`` / ``repro bench compare``);
* :mod:`repro.obs.logging` — structured JSONL logs with a per-run
  ``run_id`` threaded through the engine, workers and resilience
  retries (``--log FILE``);
* :mod:`repro.obs.profiler` — a sampling wall-clock profiler emitting
  collapsed-stack output (``--profile-sample FILE``).

Tracing, metrics, event recording and logging are all **disabled by
default**: instrumented call sites go through
:func:`~repro.obs.trace.span`, :func:`~repro.obs.metrics.inc`-style
helpers, :func:`~repro.obs.logging.log_event` and the cache's bound
recorder, costing one global read and one comparison when nothing is
installed.  The CLI's ``--trace FILE``, ``--metrics``, ``--events``,
``--log FILE`` and ``--profile-sample FILE`` flags (on ``sweep``,
``fig4``, ``fig5``, ``table1`` and ``dse``) install them for one run;
see ``docs/OBSERVABILITY.md`` for the full guide.

An event recorder or a run log is installed through its own module, so
a call site that every run passes (each simulation, each stage) asks
:func:`loaded` for that module instead of importing it: a run that
records and logs nothing never loads :mod:`repro.obs.events` or
:mod:`repro.obs.logging`.
"""

import sys
from types import ModuleType

from repro._lazy import lazy_exports

__all__ = [
    "loaded",
    "EVENT_KINDS",
    "AuditMismatch",
    "AuditResult",
    "CacheEvent",
    "EventRecorder",
    "ReplayedAttribution",
    "active_recorder",
    "audit_conflict_graph",
    "audit_workload",
    "recording_enabled",
    "replay_attribution",
    "set_recorder",
    "ComparePolicy",
    "CompareResult",
    "Regression",
    "Snapshot",
    "append_snapshot",
    "collect_suite_metrics",
    "compare_snapshots",
    "load_history",
    "machine_fingerprint",
    "record_suite",
    "RunLog",
    "active_log_spec",
    "active_run_id",
    "active_run_log",
    "install_from_spec",
    "log_event",
    "new_run_id",
    "set_run_log",
    "DEFAULT_INTERVAL",
    "SamplingProfiler",
    "METRIC_TYPES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "inc",
    "metrics_enabled",
    "observe",
    "render_prometheus",
    "set_gauge",
    "set_registry",
    "POINT_SPAN",
    "RUN_SCHEMA",
    "RunData",
    "build_run_payload",
    "load_run",
    "render_run_report",
    "summarise_run",
    "write_run_file",
    "NULL_SPAN",
    "TRACE_CATEGORY",
    "SpanEvent",
    "TraceCollector",
    "get_collector",
    "set_collector",
    "span",
    "tracing_enabled",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.events": (
        "EVENT_KINDS",
        "AuditMismatch",
        "AuditResult",
        "CacheEvent",
        "EventRecorder",
        "ReplayedAttribution",
        "active_recorder",
        "audit_conflict_graph",
        "audit_workload",
        "recording_enabled",
        "replay_attribution",
        "set_recorder",
    ),
    "repro.obs.history": (
        "ComparePolicy",
        "CompareResult",
        "Regression",
        "Snapshot",
        "append_snapshot",
        "collect_suite_metrics",
        "compare_snapshots",
        "load_history",
        "machine_fingerprint",
        "record_suite",
    ),
    "repro.obs.logging": (
        "RunLog",
        "active_log_spec",
        "active_run_id",
        "active_run_log",
        "install_from_spec",
        "log_event",
        "new_run_id",
        "set_run_log",
    ),
    "repro.obs.metrics": (
        "METRIC_TYPES",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "active_registry",
        "inc",
        "metrics_enabled",
        "observe",
        "render_prometheus",
        "set_gauge",
        "set_registry",
    ),
    "repro.obs.profiler": ("DEFAULT_INTERVAL", "SamplingProfiler"),
    "repro.obs.report": (
        "POINT_SPAN",
        "RUN_SCHEMA",
        "RunData",
        "build_run_payload",
        "load_run",
        "render_run_report",
        "summarise_run",
        "write_run_file",
    ),
    "repro.obs.trace": (
        "NULL_SPAN",
        "TRACE_CATEGORY",
        "SpanEvent",
        "TraceCollector",
        "get_collector",
        "set_collector",
        "span",
        "tracing_enabled",
    ),
})


def loaded(name: str) -> ModuleType | None:
    """Submodule ``repro.obs.<name>`` if this process imported it.

    ``None`` means nothing could have installed that module's recorder
    or run log yet, so the caller has nothing to record or log.
    """
    return sys.modules.get(f"{__name__}.{name}")
