"""Stage runner: resolve artifacts through the store, with accounting.

The :class:`StageRunner` is the seam between *what* an experiment needs
(an execution trace, a conflict graph, an evaluated allocation) and
*whether* it has to be computed: every stage resolution consults the
:class:`~repro.engine.store.ArtifactStore` first and records the
outcome — hit or compute, plus wall-clock seconds — in a structured
:class:`RunRecord`.  A warm store therefore shows up directly in the
record's counters (``record.computed("execution") == 0``), which is how
the tests assert that re-runs do no redundant profiling work.

:func:`make_workbench` is the engine-backed replacement for the old
``functools.lru_cache`` in ``repro.evaluation.sweep``: the profiled
workbench is memoised in the store's memory tier under a digest that
covers the workload name, the (float-normalised) scale, the seed and
the requested cache/trace-formation configuration — so sweeping many
workloads or scales can no longer thrash a tiny fixed-size cache, and
``scale=1`` and ``scale=1.0`` share one entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.engine import STAGES
from repro.engine.artifacts import workbench_digest
from repro.engine.store import ArtifactStore, default_store
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.traces.tracegen import TraceGenConfig
from repro.workloads.registry import Workload, get_workload

if TYPE_CHECKING:
    from repro.core.pipeline import Workbench
    from repro.memory.config import CacheConfig


@dataclass
class StageCount:
    """Counters of one stage within a :class:`RunRecord`."""

    computed: int = 0
    hits: int = 0
    seconds: float = 0.0


class RunRecord:
    """Per-stage hit/compute/timing accounting of one experiment run.

    The counters live in a private, always-on
    :class:`~repro.obs.metrics.MetricsRegistry` (one counter per
    ``engine.stage.<stage>.{computed,hits,seconds}``), so the record is
    a *consumer* of the observability layer's metric types rather than
    a parallel bookkeeping path — ``repro report`` and ``--metrics``
    read the same numbers this class renders.
    """

    #: Metric-name prefix of the per-stage counters.
    METRIC_PREFIX = "engine.stage."

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    @property
    def stages(self) -> dict[str, StageCount]:
        """Per-stage counters as :class:`StageCount` views."""
        return {
            stage: StageCount(
                computed=int(fields.get("computed", 0)),
                hits=int(fields.get("hits", 0)),
                seconds=float(fields.get("seconds", 0.0)),
            )
            for stage, fields in self._entries().items()
        }

    def _entries(self) -> dict[str, dict[str, float]]:
        entries: dict[str, dict[str, float]] = {}
        for name in self.metrics.names():
            if not name.startswith(self.METRIC_PREFIX):
                continue
            stage, _, field_name = \
                name[len(self.METRIC_PREFIX):].rpartition(".")
            entries.setdefault(stage, {})[field_name] = \
                self.metrics.value(name)
        return entries

    def _counter(self, stage: str, field_name: str):
        return self.metrics.counter(
            f"{self.METRIC_PREFIX}{stage}.{field_name}"
        )

    def note(self, stage: str, *, hit: bool,
             seconds: float = 0.0) -> None:
        """Record one stage resolution (a store hit or a compute)."""
        if hit:
            self._counter(stage, "hits").inc()
        else:
            self._counter(stage, "computed").inc()
            self._counter(stage, "seconds").inc(seconds)

    def computed(self, stage: str) -> int:
        """How many times *stage* was actually computed."""
        return int(self.metrics.value(
            f"{self.METRIC_PREFIX}{stage}.computed"
        ))

    def hits(self, stage: str) -> int:
        """How many times *stage* was served from the store."""
        return int(self.metrics.value(
            f"{self.METRIC_PREFIX}{stage}.hits"
        ))

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Plain-dict view (picklable, mergeable across processes)."""
        return {
            stage: {
                "computed": int(fields.get("computed", 0)),
                "hits": int(fields.get("hits", 0)),
                "seconds": float(fields.get("seconds", 0.0)),
            }
            for stage, fields in self._entries().items()
        }

    def merge(self, other: "RunRecord | dict") -> None:
        """Fold another record (or its :meth:`as_dict` form) into this one.

        Missing fields in a dict entry count as zero, so partial
        entries (e.g. hits-only stages from hand-built dicts) merge
        cleanly instead of raising.
        """
        entries = other.as_dict() if isinstance(other, RunRecord) \
            else other
        for stage, values in entries.items():
            computed = int(values.get("computed", 0))
            hits = int(values.get("hits", 0))
            seconds = float(values.get("seconds", 0.0))
            if computed:
                self._counter(stage, "computed").inc(computed)
            if hits:
                self._counter(stage, "hits").inc(hits)
            if seconds:
                self._counter(stage, "seconds").inc(seconds)

    def render(self) -> str:
        """One line per stage: computed/cached counts and compute time."""
        if not self.stages:
            return "engine stages: (nothing resolved)"
        ordered = [s for s in STAGES if s in self.stages]
        ordered += [s for s in self.stages if s not in STAGES]
        lines = ["engine stages (computed/cached, compute seconds):"]
        for stage in ordered:
            count = self.stages[stage]
            lines.append(
                f"  {stage:<10} {count.computed:>3} computed / "
                f"{count.hits:>3} cached   {count.seconds:8.3f} s"
            )
        return "\n".join(lines)


class StageRunner:
    """Resolves stage artifacts through a store, recording the outcome.

    Args:
        store: artifact store to consult (defaults to the process-wide
            :func:`~repro.engine.store.default_store`).
        record: run record receiving per-stage counters (a fresh one is
            created when omitted; read it back via :attr:`record`).
    """

    def __init__(self, store: ArtifactStore | None = None,
                 record: RunRecord | None = None) -> None:
        self.store = store if store is not None else default_store()
        self.record = record if record is not None else RunRecord()

    def resolve(self, stage: str, digest: str,
                compute: Callable[[], Any], *,
                disk: bool = True) -> Any:
        """Return the artifact for *digest*, computing it on a miss.

        The dependency chain is walked implicitly: *compute* closures
        resolve their upstream artifacts through this same runner, so a
        request for (say) a conflict graph consults the store at every
        stage on the way up and computes only the missing suffix.

        When tracing is enabled, every resolution emits an
        ``engine.resolve.<stage>`` span whose ``outcome`` attribute
        says whether the store served it (``hit``) or *compute* ran
        (``computed``).  Under a structured run log, computed
        resolutions emit a ``stage.computed`` event.
        """
        with span(f"engine.resolve.{stage}") as resolve_span:
            artifact = self.store.get(stage, digest, disk=disk)
            if artifact is not None:
                self.record.note(stage, hit=True)
                resolve_span.add(outcome="hit")
                return artifact
            started = time.perf_counter()
            artifact = compute()
            elapsed = time.perf_counter() - started
            self.store.put(stage, digest, artifact, disk=disk)
            self.record.note(stage, hit=False, seconds=elapsed)
            resolve_span.add(outcome="computed")
            run_log = obs.loaded("logging")
            if run_log is not None:
                run_log.log_event("stage.computed", stage=stage,
                                  seconds=round(elapsed, 6))
            return artifact


@dataclass(frozen=True)
class WorkbenchMemo:
    """Memory-tier memo of one profiled workbench (never hits disk)."""

    digest: str
    workload: Workload
    workbench: "Workbench"


def make_workbench(
    workload_name: str,
    scale: float = 1.0,
    seed: int = 0,
    cache: "CacheConfig | None" = None,
    tracegen: TraceGenConfig | None = None,
    runner: StageRunner | None = None,
    backend: str | None = None,
) -> tuple[Workload, "Workbench"]:
    """Build (and memoise) the profiled workbench of a named workload.

    Workbench construction — execution, trace generation, baseline
    cache simulation, conflict-graph construction — is the expensive,
    allocation-independent part of every experiment.  The workbench
    object itself is memoised in the store's memory tier, keyed by the
    requested configuration alone, so a memo hit looks up no workload
    metadata; its stage artifacts additionally land in the disk tier
    (when enabled), so a fresh process rebuilds the workbench from
    cached artifacts without re-running any stage.

    Args:
        workload_name: registered benchmark name.
        scale: outer-loop trip-count multiplier.
        seed: executor seed.
        cache: I-cache override (defaults to the workload's paper
            configuration).
        tracegen: trace-formation override (defaults to the cache's
            line size and the workload's smallest scratchpad).
        runner: stage runner to resolve through (defaults to a fresh
            runner on the process-wide store).
        backend: simulation backend knob forwarded to the workbench
            configuration (``reference`` | ``vector`` | ``auto``;
            ``None`` defers to the ``CASA_BACKEND`` environment
            variable, then ``auto``).

    Returns:
        ``(workload, workbench)`` — the workload metadata and the
        profiled workbench.
    """
    runner = runner if runner is not None else StageRunner()
    digest = workbench_digest(
        workload_name, scale, seed, cache, tracegen, backend=backend,
    )

    def build() -> WorkbenchMemo:
        from repro.core.pipeline import Workbench, WorkbenchConfig

        workload = get_workload(workload_name, scale=scale)
        cache_config = cache if cache is not None else workload.cache
        config = WorkbenchConfig(
            cache=cache_config,
            tracegen=tracegen if tracegen is not None else TraceGenConfig(
                line_size=cache_config.line_size,
                max_trace_size=min(workload.spm_sizes),
            ),
            seed=seed, backend=backend,
        )
        bench = Workbench(workload.program, config, runner=runner)
        return WorkbenchMemo(
            digest=digest, workload=workload, workbench=bench
        )

    memo = runner.resolve("workbench", digest, build, disk=False)
    # A memoised workbench still holds the runner that profiled it;
    # route this caller's result resolutions through *its* runner so
    # the accounting lands in the right run record.
    memo.workbench.attach_runner(runner)
    return memo.workload, memo.workbench
