"""Benchmark regression tracking: JSONL metric histories.

``repro bench record`` runs a small deterministic benchmark suite and
appends one :class:`Snapshot` — named metrics (energy totals, cache hit
rates, solver nodes, wall time) plus a machine/config fingerprint — to
a JSONL history file.  ``repro bench compare`` checks the latest
snapshot against a baseline with per-metric policies:

* **deterministic** metrics (energies, counters, hit rates) must match
  the baseline *exactly* — the whole pipeline is seeded and replayed,
  so any drift is a real behaviour change;
* **timing** metrics (names ending in ``.seconds`` or containing
  ``wall``) get a relative tolerance band, defaulting to a generous
  ±500% so only order-of-magnitude regressions trip CI;
* a metric present in the baseline but missing from the latest run is
  a regression; a *new* metric is reported but passes.

A non-empty regression list maps to a non-zero CLI exit status, which
is what lets ``make bench-smoke`` gate on the committed seed baseline
(``benchmarks/baselines/smoke.jsonl``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

#: Schema version of one history line.
HISTORY_SCHEMA = 1

#: Default relative tolerance for timing metrics (5.0 = ±500%).
DEFAULT_TIMING_TOLERANCE = 5.0

#: Name fragments marking a metric as a timing (tolerance-banded).
TIMING_MARKERS = (".seconds", "wall", "duration")


def machine_fingerprint() -> dict[str, str]:
    """Identify the machine/toolchain a snapshot was recorded on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


@dataclass
class Snapshot:
    """One recorded benchmark run.

    Attributes:
        name: logical suite name (e.g. ``smoke``).
        metrics: flat metric name -> value map.
        fingerprint: machine/toolchain identity at record time.
        config: suite configuration (workloads, scale, seed ...).
        recorded_at: Unix timestamp of the recording.
        note: free-form annotation (e.g. a commit subject).
    """

    name: str
    metrics: dict[str, float]
    fingerprint: dict[str, str] = field(
        default_factory=machine_fingerprint
    )
    config: dict = field(default_factory=dict)
    recorded_at: float = 0.0
    note: str = ""

    def as_json(self) -> dict:
        """One JSONL line's payload."""
        return {
            "schema": HISTORY_SCHEMA,
            "name": self.name,
            "metrics": self.metrics,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "recorded_at": self.recorded_at,
            "note": self.note,
        }

    @staticmethod
    def from_json(data: dict) -> "Snapshot":
        """Rebuild a snapshot from its :meth:`as_json` form."""
        if data.get("schema") != HISTORY_SCHEMA:
            raise ConfigurationError(
                f"unsupported history schema {data.get('schema')!r}"
            )
        return Snapshot(
            name=data.get("name", "?"),
            metrics={k: float(v) for k, v in data["metrics"].items()},
            fingerprint=dict(data.get("fingerprint", {})),
            config=dict(data.get("config", {})),
            recorded_at=float(data.get("recorded_at", 0.0)),
            note=str(data.get("note", "")),
        )


def append_snapshot(path: str | Path, snapshot: Snapshot) -> None:
    """Append one snapshot line to a JSONL history file."""
    history_path = Path(path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as handle:
        handle.write(json.dumps(snapshot.as_json(), sort_keys=True))
        handle.write("\n")


def load_history(path: str | Path) -> list[Snapshot]:
    """Load every snapshot of a JSONL history file, oldest first."""
    history_path = Path(path)
    if not history_path.exists():
        raise ConfigurationError(f"no history file at {history_path}")
    snapshots = []
    for lineno, line in enumerate(
            history_path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            snapshots.append(Snapshot.from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError) as error:
            raise ConfigurationError(
                f"{history_path}:{lineno}: bad history line ({error})"
            )
    if not snapshots:
        raise ConfigurationError(f"{history_path} holds no snapshots")
    return snapshots


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class ComparePolicy:
    """Per-metric matching rules of one comparison.

    Attributes:
        timing_tolerance: allowed relative deviation of timing metrics.
        timing_markers: name fragments classifying a metric as timing.
        tolerances: explicit per-metric relative tolerances, overriding
            the classification (0.0 = exact).
    """

    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE
    timing_markers: tuple[str, ...] = TIMING_MARKERS
    tolerances: dict[str, float] = field(default_factory=dict)

    def tolerance_for(self, metric: str) -> float:
        """Allowed relative deviation of one metric (0.0 = exact)."""
        if metric in self.tolerances:
            return self.tolerances[metric]
        if any(marker in metric for marker in self.timing_markers):
            return self.timing_tolerance
        return 0.0


@dataclass(frozen=True)
class Regression:
    """One metric that deviated from its baseline.

    Attributes:
        metric: metric name.
        baseline: baseline value (``None`` for unexpected new metrics).
        latest: latest value (``None`` when the metric disappeared).
        tolerance: the relative tolerance that applied.
    """

    metric: str
    baseline: float | None
    latest: float | None
    tolerance: float

    def describe(self) -> str:
        """One-line human-readable form."""
        if self.latest is None:
            return f"{self.metric}: missing (baseline {self.baseline:g})"
        if self.baseline is None:
            return f"{self.metric}: unexpected ({self.latest:g})"
        delta = self.latest - self.baseline
        relative = abs(delta) / max(1e-12, abs(self.baseline))
        bound = (f"exact match required" if self.tolerance == 0.0
                 else f"tolerance ±{100.0 * self.tolerance:.0f}%")
        return (
            f"{self.metric}: {self.baseline:g} -> {self.latest:g} "
            f"({delta:+g}, {100.0 * relative:.2f}% off; {bound})"
        )


@dataclass
class CompareResult:
    """Outcome of one baseline comparison.

    Attributes:
        baseline_name: suite name of the baseline snapshot.
        regressions: deviating metrics (empty = pass).
        checked: metrics compared.
        new_metrics: metrics in the latest run with no baseline (these
            pass, but are listed so baselines get refreshed).
        fingerprint_changed: machine/toolchain differs from the
            baseline's (context for exact-match failures).
    """

    baseline_name: str
    regressions: list[Regression]
    checked: int
    new_metrics: list[str] = field(default_factory=list)
    fingerprint_changed: bool = False

    @property
    def ok(self) -> bool:
        """Whether every checked metric stayed within its policy."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable verdict."""
        lines = [
            f"bench compare vs {self.baseline_name!r}: "
            f"{self.checked} metrics checked"
        ]
        if self.fingerprint_changed:
            lines.append(
                "  note: machine/toolchain fingerprint differs from "
                "the baseline"
            )
        if self.new_metrics:
            lines.append(
                f"  {len(self.new_metrics)} new metric(s) without a "
                f"baseline: {', '.join(sorted(self.new_metrics))}"
            )
        if self.ok:
            lines.append("  OK — no regressions")
        else:
            lines.append(f"  {len(self.regressions)} REGRESSION(S):")
            lines += [f"  - {r.describe()}" for r in self.regressions]
        return "\n".join(lines)


def compare_snapshots(
    baseline: Snapshot,
    latest: Snapshot,
    policy: ComparePolicy | None = None,
) -> CompareResult:
    """Check *latest* against *baseline* under *policy*.

    Every baseline metric must be present in the latest snapshot and
    within its tolerance (exact for deterministic metrics).  Metrics
    only the latest snapshot has are collected in ``new_metrics`` and
    do not fail the comparison.
    """
    policy = policy or ComparePolicy()
    regressions: list[Regression] = []
    for metric in sorted(baseline.metrics):
        expected = baseline.metrics[metric]
        tolerance = policy.tolerance_for(metric)
        actual = latest.metrics.get(metric)
        if actual is None:
            regressions.append(
                Regression(metric, expected, None, tolerance)
            )
            continue
        if tolerance == 0.0:
            if actual != expected:
                regressions.append(
                    Regression(metric, expected, actual, tolerance)
                )
        else:
            deviation = abs(actual - expected) / max(
                1e-12, abs(expected)
            )
            if deviation > tolerance:
                regressions.append(
                    Regression(metric, expected, actual, tolerance)
                )
    new_metrics = sorted(set(latest.metrics) - set(baseline.metrics))
    return CompareResult(
        baseline_name=baseline.name,
        regressions=regressions,
        checked=len(baseline.metrics),
        new_metrics=new_metrics,
        fingerprint_changed=(
            baseline.fingerprint != latest.fingerprint
        ),
    )


# -- the recorded suite -------------------------------------------------------

#: Workloads of the default ``bench record`` suite.
DEFAULT_SUITE_WORKLOADS = ("tiny", "adpcm")

#: Scale of the default suite (matches ``make bench-smoke``).
DEFAULT_SUITE_SCALE = 0.2


def collect_suite_metrics(
    workloads: tuple[str, ...] = DEFAULT_SUITE_WORKLOADS,
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
) -> dict[str, float]:
    """Run the benchmark suite and collect its named metrics.

    Every workload is profiled in a **fresh memory-only store** (a warm
    disk cache would skip the simulations whose counters we snapshot)
    and evaluated with CASA and Steinke at its smallest scratchpad.
    Deterministic outputs (energies, hit rates, node/iteration counts)
    come out bit-identical run over run; only ``wall.seconds`` varies.
    """
    # Local imports keep repro.obs importable without the engine.
    from repro.engine.runner import StageRunner, make_workbench
    from repro.engine.store import ArtifactStore
    from repro.obs.metrics import MetricsRegistry, set_registry

    started = time.perf_counter()
    metrics: dict[str, float] = {}
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for name in workloads:
            runner = StageRunner(store=ArtifactStore())
            workload, bench = make_workbench(
                name, scale=scale, seed=seed, runner=runner
            )
            spm_size = min(workload.spm_sizes)
            baseline = bench.baseline_result()
            report = baseline.report
            prefix = f"{name}"
            metrics[f"{prefix}.baseline.energy_nj"] = \
                baseline.total_energy
            metrics[f"{prefix}.baseline.fetches"] = \
                float(report.total_fetches)
            accesses = report.cache_accesses
            metrics[f"{prefix}.baseline.cache_hit_rate"] = (
                report.cache_hits / accesses if accesses else 0.0
            )
            for algorithm, run in (
                ("casa", bench.run_casa),
                ("steinke", bench.run_steinke),
            ):
                result = run(spm_size)
                allocation = result.allocation
                metrics[f"{prefix}.{algorithm}.energy_nj"] = \
                    result.total_energy
                metrics[f"{prefix}.{algorithm}.spm_objects"] = \
                    float(len(allocation.spm_resident))
                metrics[f"{prefix}.{algorithm}.solver_nodes"] = \
                    float(allocation.solver_nodes)
    finally:
        set_registry(previous)
    for counter in ("ilp.nodes", "ilp.solves", "sim.runs",
                    "sim.fetches"):
        metrics[f"suite.{counter}"] = registry.value(counter)
    # Resilience counters: all must stay exactly zero on the clean
    # path — any non-zero value means faults, retries or fallbacks
    # crept into an uninjected run, which the baseline compare flags.
    for counter in ("faults.injected", "resilience.retries",
                    "resilience.degraded_points",
                    "resilience.failed_points",
                    "resilience.pool_restarts",
                    "resilience.kernel_fallbacks",
                    "solver.degraded", "store.quarantined"):
        metrics[f"suite.{counter}"] = registry.value(counter)
    for name in workloads:
        metrics.update(measure_policy_misses(name, scale=scale,
                                             seed=seed))
    metrics.update(measure_kernel_speedup(scale=scale, seed=seed))
    metrics.update(measure_grid_speedup(scale=scale, seed=seed))
    metrics.update(measure_serve_latency(scale=scale, seed=seed))
    metrics.update(measure_serve_overload(scale=scale, seed=seed))
    metrics["wall.seconds"] = time.perf_counter() - started
    return metrics


#: Policies the suite snapshots baseline misses for.  ``random`` is
#: excluded only because its victims consume an RNG stream unrelated
#: to the workload seed; every deterministic policy participates, and
#: ``opt`` gives the snapshot a Belady floor the smoke test asserts
#: is never beaten.
SUITE_POLICIES = ("lru", "fifo", "lfu", "2q", "arc", "opt")


def measure_policy_misses(
    workload_name: str,
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
    associativity: int = 2,
) -> dict[str, float]:
    """Baseline I-cache misses of one workload per replacement policy.

    Simulates the workload's cache-only image once per
    :data:`SUITE_POLICIES` member with the paper cache widened to
    *associativity* ways (direct mapped, every policy collapses to
    the same behaviour).  All runs use the reference backend — the
    only interpreter that can drive the OPT next-use oracle — so the
    numbers are deterministic and the ``opt`` row is a true Belady
    floor for the others.  Runs after the suite registry is restored,
    like the speedup measurements, so the exact-match ``suite.sim.*``
    counters are untouched.
    """
    from dataclasses import replace

    from repro.engine.runner import StageRunner, make_workbench
    from repro.engine.store import ArtifactStore
    from repro.memory.hierarchy import HierarchyConfig, simulate
    from repro.traces.layout import LinkedImage, Placement

    runner = StageRunner(store=ArtifactStore())
    workload, bench = make_workbench(
        workload_name, scale=scale, seed=seed, runner=runner
    )
    config = bench.config
    image = LinkedImage(
        bench.program, bench.memory_objects,
        spm_resident=frozenset(), spm_size=0,
        placement=Placement.COPY,
        main_base=config.main_base, spm_base=config.spm_base,
    )
    metrics: dict[str, float] = {}
    for policy in SUITE_POLICIES:
        cache = replace(config.cache, associativity=associativity,
                        policy=policy)
        report = simulate(
            image, HierarchyConfig(cache=cache),
            bench.block_sequence, spm_base=config.spm_base,
            backend="reference",
        )
        metrics[f"{workload_name}.policy.{policy}.misses"] = \
            float(report.cache_misses)
    return metrics


def measure_kernel_speedup(
    workload_name: str = "adpcm",
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, float]:
    """Time a fig4-shaped sweep through both simulator backends.

    Simulates the workload's baseline image plus one greedy-filled
    scratchpad image per catalogued SPM size — the simulation load of
    one figure-4 sweep — through the reference interpreter and the
    vector kernel.  The kernel is charged one compilation of the block
    sequence and one link per layout, exactly as a workbench resolves
    its ``stream`` artifact across a sweep.  Returns timing metrics only
    (``kernel.*.seconds`` and the ``kernel.wall.speedup`` ratio); the
    deterministic suite numbers are untouched.  Runs *after* the
    suite registry is restored, so it never perturbs the exact-match
    ``suite.sim.*`` counters.
    """
    from repro.engine.runner import StageRunner, make_workbench
    from repro.engine.store import ArtifactStore
    from repro.memory.hierarchy import HierarchyConfig, simulate
    from repro.memory.kernel import compile_stream
    from repro.traces.layout import LinkedImage, Placement

    runner = StageRunner(store=ArtifactStore())
    workload, bench = make_workbench(
        workload_name, scale=scale, seed=seed, runner=runner
    )
    config = bench.config

    def image_for(spm_size: int) -> LinkedImage:
        resident: set[str] = set()
        used = 0
        for mo in bench.memory_objects:
            if spm_size and used + mo.unpadded_size <= spm_size:
                resident.add(mo.name)
                used += mo.unpadded_size
        return LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=frozenset(resident), spm_size=spm_size,
            placement=Placement.COPY,
            main_base=config.main_base, spm_base=config.spm_base,
        )

    sweep = [(image_for(size), size)
             for size in (0, *workload.spm_sizes)]

    def timed(backend: str) -> float:
        streams: dict[int, object] = {}
        started = time.perf_counter()
        for _ in range(repeats):
            for index, (image, spm_size) in enumerate(sweep):
                hierarchy = HierarchyConfig(
                    cache=config.cache, spm_size=spm_size
                )
                stream = None
                if backend == "vector":
                    stream = streams.get(index)
                    if stream is None and streams:
                        stream = streams[0].sequence.link(
                            image, config.spm_base)
                    elif stream is None:
                        stream = compile_stream(
                            image, bench.block_sequence,
                            spm_base=config.spm_base,
                        )
                    streams[index] = stream
                simulate(image, hierarchy, bench.block_sequence,
                         spm_base=config.spm_base, backend=backend,
                         stream=stream)
        return time.perf_counter() - started

    vector = timed("vector")
    reference = timed("reference")
    return {
        "kernel.vector.seconds": vector,
        "kernel.reference.seconds": reference,
        "kernel.wall.speedup": reference / vector,
    }


def measure_grid_speedup(
    workload_name: str = "adpcm",
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, float]:
    """Time a multi-configuration sweep grid-wise and point-wise.

    The per-point baseline here is the *vector kernel* with the
    stream already compiled and reused — i.e. the best the pre-grid
    pipeline could do — replaying a constant-geometry cache axis
    (line 16, 32/64 sets, 1–8 ways, all LRU: the shape where the
    single-pass stack-distance scan shares the most work) one
    configuration at a time, for the fig4-shaped image set of one
    workload.  The grid path replays the same axis through one
    :func:`~repro.memory.kernel.grid.simulate_grid` call per image.
    Streams are compiled once per image *outside* the timers — in the
    engine both paths resolve the same cached ``stream`` artifact, so
    compilation is steady-state-free on either side.  Returns timing
    metrics only (``grid.*.seconds`` and the ``grid.wall.speedup``
    ratio).
    """
    from repro.engine.runner import StageRunner, make_workbench
    from repro.engine.store import ArtifactStore
    from repro.memory.config import CacheConfig
    from repro.memory.hierarchy import HierarchyConfig, simulate
    from repro.memory.kernel import SweepGrid, compile_stream, \
        simulate_grid
    from repro.traces.layout import LinkedImage, Placement

    runner = StageRunner(store=ArtifactStore())
    workload, bench = make_workbench(
        workload_name, scale=scale, seed=seed, runner=runner
    )
    config = bench.config
    line_size = 16

    def image_for(spm_size: int) -> LinkedImage:
        resident: set[str] = set()
        used = 0
        for mo in bench.memory_objects:
            if spm_size and used + mo.unpadded_size <= spm_size:
                resident.add(mo.name)
                used += mo.unpadded_size
        return LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=frozenset(resident), spm_size=spm_size,
            placement=Placement.COPY,
            main_base=config.main_base, spm_base=config.spm_base,
        )

    def axis_for(spm_size: int) -> SweepGrid:
        return SweepGrid.of(
            HierarchyConfig(
                cache=CacheConfig(
                    size=line_size * ways * num_sets,
                    line_size=line_size, associativity=ways,
                ),
                spm_size=spm_size,
            )
            for num_sets in (32, 64)
            for ways in (1, 2, 4, 8)
        )

    sweep = []
    for size in (0, *workload.spm_sizes):
        image = image_for(size)
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=config.spm_base)
        sweep.append((image, stream, axis_for(size)))

    def timed(single_pass: bool) -> float:
        started = time.perf_counter()
        for _ in range(repeats):
            for image, stream, axis in sweep:
                if single_pass:
                    simulate_grid(stream, axis,
                                  spm_base=config.spm_base)
                    continue
                for hierarchy in axis:
                    simulate(image, hierarchy, bench.block_sequence,
                             spm_base=config.spm_base,
                             backend="vector", stream=stream)
        return time.perf_counter() - started

    single_pass = timed(single_pass=True)
    per_point = timed(single_pass=False)
    return {
        "grid.single_pass.seconds": single_pass,
        "grid.per_point.seconds": per_point,
        "grid.wall.speedup": per_point / single_pass,
    }


def measure_serve_latency(
    requests: int = 24,
    workers: int = 3,
    workload_name: str = "tiny",
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
) -> dict[str, float]:
    """Throughput and latency percentiles of one serve-daemon burst.

    Starts the ``repro serve`` stack on a background thread with an
    ephemeral port and drives it with a short closed-loop mixed-verb
    burst (:func:`repro.serve.loadgen.run_load`).  Returns the timing
    metrics (``serve.wall.rps`` and the ``serve.latency.*.seconds``
    percentiles, tolerance-banded by the compare policy) plus two
    exact-match counters: ``serve.requests.total`` (the burst size)
    and ``serve.requests.failed``, which must stay zero — any failed
    request under a clean run is a behaviour change the baseline
    compare flags.  Runs *after* the suite registry is restored; the
    service installs its own private registry for the burst.
    """
    from repro.serve.daemon import start_in_thread
    from repro.serve.loadgen import run_load
    from repro.serve.service import AllocationService

    service = AllocationService()
    handle = start_in_thread(service)
    try:
        report = run_load(
            handle.url, requests=requests, workers=workers,
            workload=workload_name, scale=scale, seed=seed,
        )
    finally:
        handle.stop()
    return {
        "serve.wall.rps": report.rps,
        "serve.latency.p50.seconds": report.latency["p50"],
        "serve.latency.p99.seconds": report.latency["p99"],
        "serve.requests.total": float(report.requests),
        "serve.requests.failed": float(report.failures),
    }


def measure_serve_overload(
    sheds: int = 8,
    requests: int = 16,
    workload_name: str = "tiny",
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
) -> dict[str, float]:
    """Hardening-layer counters and overload latency of the service.

    Two short segments, the first fully deterministic:

    1. **admission** — a service bounded to one in-flight request
       has admitted one solve when *sheds* more requests arrive
       (admission is synchronous); every one must shed, so
       ``serve.overload.shed.total`` is exactly *sheds*.
    2. **overload latency** — a real daemon with ``max_inflight=2``
       under ``2x`` closed-loop workers; the accepted-request p99
       (``serve.overload.latency.p99.seconds``, tolerance-banded) is
       the number the hardening layer protects, while
       ``serve.overload.failed`` must stay exactly zero — under
       admission control every refusal is a structured shed, never a
       failure.
    """
    import asyncio

    from repro.serve.daemon import start_in_thread
    from repro.serve.loadgen import run_load
    from repro.serve.schema import EvaluateRequest
    from repro.serve.service import AllocationService, ServiceConfig

    metrics: dict[str, float] = {}

    # Segment 1: exactly `sheds` overload sheds behind one solve.
    service = AllocationService(ServiceConfig(max_inflight=1))
    service.start()
    try:
        async def admission_scenario() -> None:
            slow = asyncio.ensure_future(service.handle(
                EvaluateRequest(workload_name, scale=scale,
                                seed=seed, spm_size=64)))
            await asyncio.sleep(0)  # admitted, queued in batcher
            for _ in range(sheds):
                response = await service.handle(EvaluateRequest(
                    workload_name, scale=scale, seed=seed,
                    spm_size=64))
                assert response.status == "shed"
            await slow

        asyncio.run(admission_scenario())
    finally:
        service.stop()
    metrics["serve.overload.shed.total"] = \
        service.registry.value("serve.shed.total")

    # Segment 2: accepted-request latency under 2x overload.
    service = AllocationService(ServiceConfig(max_inflight=2))
    handle = start_in_thread(service)
    try:
        run_load(handle.url, requests=4, workers=1,
                 mix="evaluate=1", workload=workload_name,
                 scale=scale, seed=seed)  # warm the artifact cache
        report = run_load(
            handle.url, requests=requests, workers=4,
            mix="evaluate=1", workload=workload_name, scale=scale,
            seed=seed,
        )
    finally:
        handle.stop()
    metrics["serve.overload.latency.p99.seconds"] = \
        report.accepted_latency["p99"]
    metrics["serve.overload.failed"] = float(report.failures)
    return metrics


def record_suite(
    path: str | Path,
    name: str = "smoke",
    workloads: tuple[str, ...] = DEFAULT_SUITE_WORKLOADS,
    scale: float = DEFAULT_SUITE_SCALE,
    seed: int = 0,
    note: str = "",
) -> Snapshot:
    """Run the suite, append the snapshot to *path*, and return it."""
    snapshot = Snapshot(
        name=name,
        metrics=collect_suite_metrics(workloads, scale, seed),
        config={
            "workloads": list(workloads),
            "scale": scale,
            "seed": seed,
        },
        recorded_at=time.time(),
        note=note,
    )
    append_snapshot(path, snapshot)
    return snapshot
