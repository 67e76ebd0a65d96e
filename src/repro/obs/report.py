"""Per-run reports: stage timings, cache hit rates, slowest points.

The CLI's ``--trace FILE`` flag saves one self-describing run file: a
Chrome-trace JSON object whose ``casa`` key embeds the engine's
:class:`~repro.engine.runner.RunRecord` counters and the metrics
snapshot of the run.  This module turns such a file back into a
human-readable report (``repro report FILE``) or a machine-readable
JSON summary (``repro report FILE --json``):

* per-stage timings and artifact-cache hit rates (from the record);
* simulated I-cache / scratchpad statistics (from the metrics);
* the top-N slowest design points (from the ``point.evaluate`` spans,
  one per capacity step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_CATEGORY, TraceCollector
from repro.utils.tables import format_table

#: Schema version of the embedded ``casa`` run payload.
RUN_SCHEMA = 1

#: Span name identifying one design-point evaluation (one capacity
#: step of a grid chunk).
POINT_SPAN = "point.evaluate"

#: Span name identifying one ILP solve.
SOLVE_SPAN = "ilp.solve"


def build_run_payload(
    command: str,
    collector: TraceCollector,
    record: "Any" = None,
    registry: MetricsRegistry | None = None,
    argv: list[str] | None = None,
    run_id: str | None = None,
    profile: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the trace-file document for one observed run.

    Returns a Chrome-trace JSON object (``traceEvents`` + metadata
    under ``casa``) ready to be serialised with :func:`json.dump`.

    Args:
        command: the CLI subcommand (or logical run name).
        collector: the collector that recorded the run.
        record: the run's :class:`~repro.engine.runner.RunRecord`
            (or ``None`` when no engine work was recorded).
        registry: the run's metrics registry, if metrics were enabled.
        argv: the command-line arguments, for provenance.
        run_id: structured-log correlation id of the run, if any.
        profile: :meth:`~repro.obs.profiler.SamplingProfiler.stats`
            of the run's sampling profile, if one was taken.
    """
    metadata: dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "command": command,
        "record": record.as_dict() if record is not None else {},
        "metrics": registry.snapshot() if registry is not None else {},
    }
    if argv is not None:
        metadata["argv"] = list(argv)
    if run_id is not None:
        metadata["run_id"] = run_id
    if profile is not None:
        metadata["profile"] = profile
    return collector.chrome_trace(metadata=metadata)


def write_run_file(path: str | Path, payload: dict[str, Any]) -> None:
    """Serialise a :func:`build_run_payload` document to *path*."""
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


@dataclass
class RunData:
    """A loaded run file, ready for rendering.

    Attributes:
        command: the CLI subcommand that produced the run.
        record: per-stage counters (``RunRecord.as_dict`` form).
        metrics: the metrics snapshot of the run.
        spans: the trace events (Chrome-trace dicts, completion order).
        argv: the recorded command line, when present.
        run_id: structured-log correlation id, when one was minted.
        profile: sampling-profiler stats, when a profile was taken.
    """

    command: str
    record: dict[str, dict[str, float]]
    metrics: dict[str, dict[str, Any]]
    spans: list[dict[str, Any]]
    argv: list[str] = field(default_factory=list)
    run_id: str | None = None
    profile: dict[str, Any] = field(default_factory=dict)

    def span_names(self) -> list[str]:
        """Names of the recorded spans, in file order."""
        return [span["name"] for span in self.spans]

    def point_spans(self) -> list[dict[str, Any]]:
        """The design-point (:data:`POINT_SPAN`) spans of the run.

        One per capacity step of every evaluated grid chunk.
        """
        return [s for s in self.spans if s["name"] == POINT_SPAN]

    def solver_spans(self) -> list[dict[str, Any]]:
        """The ILP solve (:data:`SOLVE_SPAN`) spans of the run."""
        return [s for s in self.spans if s["name"] == SOLVE_SPAN]

    def metric_value(self, name: str, default: float = 0.0) -> float:
        """Counter/gauge value of metric *name* (or *default*)."""
        data = self.metrics.get(name)
        if not data:
            return default
        if data.get("type") == "histogram":
            return float(data.get("total", default))
        return float(data.get("value", default))


def load_run(path: str | Path) -> RunData:
    """Parse a ``--trace`` run file written by :func:`write_run_file`.

    Raises:
        ConfigurationError: when the file is not a run file this
            version can read (missing/foreign ``casa`` metadata).
    """
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(f"cannot read run file {path}: {error}")
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ConfigurationError(
            f"{path} is not a Chrome-trace run file (no traceEvents)"
        )
    metadata = document.get("casa")
    if not isinstance(metadata, dict) or \
            metadata.get("schema") != RUN_SCHEMA:
        raise ConfigurationError(
            f"{path} carries no casa run metadata (was it written by "
            f"--trace?)"
        )
    spans = [
        event for event in document["traceEvents"]
        if event.get("ph") == "X" and event.get("cat") == TRACE_CATEGORY
    ]
    return RunData(
        command=str(metadata.get("command", "?")),
        record=metadata.get("record", {}),
        metrics=metadata.get("metrics", {}),
        spans=spans,
        argv=list(metadata.get("argv", [])),
        run_id=metadata.get("run_id"),
        profile=metadata.get("profile", {}) or {},
    )


# -- rendering -----------------------------------------------------------------


def _stage_rows(record: dict[str, dict[str, float]]) -> list[list]:
    from repro.engine.runner import STAGES

    ordered = [s for s in ("workbench",) + STAGES if s in record]
    ordered += [s for s in sorted(record) if s not in ordered]
    rows = []
    for stage in ordered:
        entry = record[stage]
        computed = int(entry.get("computed", 0))
        hits = int(entry.get("hits", 0))
        total = computed + hits
        rate = (100.0 * hits / total) if total else 0.0
        rows.append([
            stage, computed, hits, f"{rate:.1f}%",
            f"{float(entry.get('seconds', 0.0)):.3f}",
        ])
    return rows


def _cache_lines(run: RunData) -> list[str]:
    accesses = run.metric_value("sim.cache_accesses")
    hits = run.metric_value("sim.cache_hits")
    misses = run.metric_value("sim.cache_misses")
    spm = run.metric_value("sim.spm_accesses")
    lines = []
    if accesses:
        lines.append(
            f"simulated I-cache: {accesses:.0f} accesses, "
            f"{hits:.0f} hits ({100.0 * hits / accesses:.1f}%), "
            f"{misses:.0f} misses"
        )
    if spm:
        lines.append(f"simulated scratchpad: {spm:.0f} accesses")
    events = run.metric_value("events.total")
    if events:
        lines.append(
            f"cache event stream: {events:.0f} events recorded "
            f"({run.metric_value('events.miss'):.0f} misses, "
            f"{run.metric_value('events.evict'):.0f} evictions)"
        )
    if not lines:
        lines.append(
            "simulated cache statistics: none recorded (fully cached "
            "run — every stage came from the artifact store)"
        )
    return lines


def _solve_summaries(run: RunData) -> list[dict[str, Any]]:
    """One plain-data entry per recorded ``ilp.solve`` span."""
    solves = []
    for solve_span in run.solver_spans():
        args = solve_span.get("args", {})
        solves.append({
            "variables": int(args.get("variables", 0)),
            "constraints": int(args.get("constraints", 0)),
            "status": str(args.get("status", "?")),
            "nodes": int(args.get("nodes", 0)),
            "best_bound": args.get("best_bound"),
            "gap": args.get("gap"),
        })
    return solves


def _solver_lines(run: RunData) -> list[str]:
    """One row per ILP solve (empty without solves)."""
    solves = _solve_summaries(run)
    if not solves:
        return []
    rows = []
    for entry in solves:
        bound, gap = entry["best_bound"], entry["gap"]
        rows.append([
            entry["variables"], entry["constraints"], entry["status"],
            entry["nodes"],
            f"{bound:.6g}" if bound is not None else "-",
            f"{100.0 * gap:.2f}%" if gap is not None else "-",
        ])
    return ["", "## Solver", "", format_table(
        ["vars", "cons", "status", "nodes", "best bound", "gap"], rows,
    )]


#: Resilience counters surfaced in the report, with display labels.
#: ``resilience.retry.seconds`` is a histogram — its *total* is the
#: wall time the healing layer spent on attempts after each first try.
_RESILIENCE_METRICS = (
    ("faults.injected", "faults injected"),
    ("resilience.retries", "point retries"),
    ("resilience.retry.seconds", "retry wall time (s)"),
    ("resilience.degraded_points", "degraded points"),
    ("resilience.failed_points", "failed points"),
    ("resilience.pool_restarts", "worker-pool restarts"),
    ("resilience.kernel_fallbacks", "kernel fallbacks"),
    ("solver.degraded", "solver degradations (CASA→greedy)"),
    ("store.quarantined", "quarantined artifacts"),
)


def histogram_summary(data: dict[str, Any]) -> dict[str, float]:
    """p50/p90/p99 summary of one snapshot-form histogram metric.

    Rebuilds the log-bucket sketch from the snapshot dict (the form
    run files store) and returns
    :meth:`~repro.obs.metrics.Histogram.summary`.  Snapshots written
    before the percentile sketch existed have no buckets; their
    percentiles degrade to the observed min/max clamp.
    """
    registry = MetricsRegistry()
    registry.merge({"h": dict(data, type="histogram")})
    return registry.histogram("h").summary()


def _histogram_entries(run: RunData) -> dict[str, dict[str, float]]:
    """Summaries of every histogram metric in the run, sorted by name."""
    return {
        name: histogram_summary(data)
        for name, data in sorted(run.metrics.items())
        if data.get("type") == "histogram"
    }


def _histogram_lines(run: RunData) -> list[str]:
    """The histogram/percentile section (empty without histograms)."""
    entries = _histogram_entries(run)
    if not entries:
        return []
    rows = []
    for name, summary in entries.items():
        rows.append([
            name, int(summary["count"]),
            f"{summary['mean']:.4g}", f"{summary['p50']:.4g}",
            f"{summary['p90']:.4g}", f"{summary['p99']:.4g}",
            f"{summary['max']:.4g}",
        ])
    return [
        "", "## Histogram metrics", "",
        format_table(
            ["metric", "count", "mean", "p50", "p90", "p99", "max"],
            rows,
        ),
    ]


def _profile_lines(run: RunData, wall_ms: float) -> list[str]:
    """The sampling-profile section, reconciled against span wall time."""
    profile = run.profile
    if not profile:
        return []
    samples = int(profile.get("samples", 0))
    interval = float(profile.get("interval_s", 0.0))
    estimated = float(profile.get("estimated_busy_s", 0.0))
    duration = float(profile.get("duration_s", 0.0))
    lines = [
        "", "## Sampling profile", "",
        f"- samples: {samples} at {interval * 1e3:.1f} ms intervals "
        f"over {duration:.2f} s",
        f"- estimated busy time: {estimated:.2f} s "
        f"(samples × interval)",
    ]
    wall_s = wall_ms / 1e3
    if wall_s > 0:
        ratio = estimated / wall_s
        if ratio <= 1.0:
            lines.append(
                f"- traced span wall time: {wall_s:.2f} s — the "
                f"profiler saw {100.0 * ratio:.0f}% of it (the rest "
                f"was spent outside the sampled thread, e.g. in pool "
                f"workers)"
            )
        else:
            lines.append(
                f"- traced span wall time: {wall_s:.2f} s — less than "
                f"the {estimated:.2f} s the profiler saw (time outside "
                f"any span, e.g. argument parsing or output rendering)"
            )
    hot = profile.get("hot") or []
    if hot:
        lines += ["", format_table(
            ["function", "samples"],
            [[entry["function"], entry["samples"]] for entry in hot],
        )]
    return lines


def _resilience_lines(run: RunData) -> list[str]:
    """The resilience section (empty when nothing eventful happened).

    Sourced from the fault-injection and self-healing metrics (see
    ``docs/ROBUSTNESS.md``); a clean, fault-free run records all-zero
    counters and gets no section at all.
    """
    entries = [
        (label, run.metric_value(name))
        for name, label in _RESILIENCE_METRICS
    ]
    if not any(value for _, value in entries):
        return []
    lines = ["", "## Resilience", ""]
    for label, value in entries:
        if value:
            lines.append(f"- {label}: {value:g}")
    sites = sorted(
        name for name in run.metrics
        if name.startswith("faults.injected.")
    )
    for name in sites:
        site = name[len("faults.injected."):]
        lines.append(f"  - at {site}: {run.metric_value(name):g}")
    return lines


def _slowest_points(run: RunData, top: int) -> list[dict[str, Any]]:
    points = run.point_spans()
    if not points:
        points = [s for s in run.spans if not s.get("args", {})
                  .get("depth", 0)]
    ranked = sorted(points, key=lambda s: -float(s.get("dur", 0.0)))
    return ranked[:top]


def summarise_run(run: RunData, top: int = 10) -> dict[str, Any]:
    """The report as plain data (what ``repro report --json`` prints)."""
    wall_us = max(
        (float(s.get("ts", 0.0)) + float(s.get("dur", 0.0))
         for s in run.spans),
        default=0.0,
    )
    stages = {}
    for stage, entry in run.record.items():
        computed = int(entry.get("computed", 0))
        hits = int(entry.get("hits", 0))
        total = computed + hits
        stages[stage] = {
            "computed": computed,
            "hits": hits,
            "hit_rate": (hits / total) if total else 0.0,
            "compute_seconds": float(entry.get("seconds", 0.0)),
        }
    slowest = [
        {
            "name": span["name"],
            "duration_ms": float(span.get("dur", 0.0)) / 1e3,
            "args": {
                k: v for k, v in span.get("args", {}).items()
                if k not in ("cpu_us", "depth")
            },
        }
        for span in _slowest_points(run, top)
    ]
    resilience = {
        name.replace("faults.injected", "injected")
        .replace("resilience.", "").replace("solver.", "solver_")
        .replace("store.", "store_"): run.metric_value(name)
        for name, _ in _RESILIENCE_METRICS
    }
    return {
        "command": run.command,
        "run_id": run.run_id,
        "argv": run.argv,
        "spans": len(run.spans),
        "wall_ms": wall_us / 1e3,
        "stages": stages,
        "metrics": run.metrics,
        "histograms": _histogram_entries(run),
        "slowest": slowest,
        "solves": _solve_summaries(run),
        "resilience": resilience,
        "profile": run.profile,
    }


def render_run_report(run: RunData, top: int = 10) -> str:
    """Render a loaded run as a markdown report."""
    summary = summarise_run(run, top=top)
    lines = [
        f"# Run report: `{run.command}`",
        "",
        f"- spans recorded: {summary['spans']}",
        f"- wall time (trace): {summary['wall_ms']:.1f} ms",
    ]
    if run.run_id:
        lines.append(f"- run id: `{run.run_id}`")
    if run.argv:
        lines.append(f"- argv: `{' '.join(run.argv)}`")
    lines += ["", "## Stage timings", ""]
    if run.record:
        lines.append(format_table(
            ["stage", "computed", "cached", "hit rate", "compute s"],
            _stage_rows(run.record),
        ))
    else:
        lines.append("(no engine stages recorded)")
    lines += ["", "## Cache behaviour", ""]
    lines += [f"- {line}" for line in _cache_lines(run)]
    store_reads = sum(
        int(e.get("computed", 0)) + int(e.get("hits", 0))
        for e in run.record.values()
    )
    store_hits = sum(int(e.get("hits", 0)) for e in run.record.values())
    if store_reads:
        lines.append(
            f"- artifact store: {store_hits}/{store_reads} stage "
            f"resolutions served from cache "
            f"({100.0 * store_hits / store_reads:.1f}%)"
        )
    lines += ["", f"## Slowest design points (top {top})", ""]
    slowest = summary["slowest"]
    if slowest:
        rows = []
        for entry in slowest:
            args = entry["args"]
            label = " ".join(
                f"{key}={args[key]}" for key in sorted(args)
            )
            rows.append([entry["name"], label,
                         f"{entry['duration_ms']:.2f}"])
        lines.append(format_table(
            ["span", "attributes", "ms"], rows,
        ))
    else:
        lines.append("(no spans recorded)")
    lines += _histogram_lines(run)
    lines += _solver_lines(run)
    lines += _resilience_lines(run)
    lines += _profile_lines(run, summary["wall_ms"])
    interesting = [
        name for name in sorted(run.metrics)
        if name.startswith(("ilp.", "graph.", "trace."))
    ]
    if interesting:
        lines += ["", "## Solver and analysis metrics", ""]
        for name in interesting:
            run_value = run.metric_value(name)
            lines.append(f"- {name}: {run_value:g}")
    return "\n".join(lines)
