"""Chaos differential gate: faults in, bit-identical results out.

:func:`run_chaos` executes the same small sweep twice — once clean,
once under an injected :class:`~repro.resilience.faults.FaultPlan`
through the self-healing layer — and compares the deterministic
observables of every design point (energies, hit/miss counts,
scratchpad-resident sets) for *bit-identical* equality.  Any
divergence means a resilience mechanism leaked state (a retry that
was not idempotent, a quarantine that changed a result, a fallback
that was not exact) and fails the gate.

The sweep schedules one self-healed grid chunk per allocator — the
engine's one unit shape, so the whole chunk retries as one — plus one
policy-varied configuration (the workload's cache as 2-way LFU) so a
non-default replacement policy rides through the same ladder.
The faulty pass runs against a throwaway on-disk cache that is warmed
first and then stripped of its memory tier, so ``store.read`` faults
genuinely exercise the quarantine-and-recompute ladder rather than
missing cold caches.  Exposed on the CLI as ``repro chaos`` and in CI
as ``make chaos-smoke``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace

from repro.engine.grid import GridChunk
from repro.engine.store import ArtifactStore, set_default_store
from repro.obs.logging import log_event
from repro.obs.metrics import MetricsRegistry, active_registry, \
    set_registry
from repro.resilience.faults import FaultPlan, set_fault_plan
from repro.resilience.healing import HealedRun, RetryPolicy, \
    map_points_healed

#: Default scratchpad sizes of the chaos sweep.
DEFAULT_SIZES = (64, 128)

#: Default allocators of the chaos sweep.
DEFAULT_ALGORITHMS = ("casa", "steinke")

#: Error types in point outcomes that witness an injected/healed fault.
_FAULT_ERROR_TYPES = (
    "InjectedFault",
    "WorkerCrashError",
    "PointTimeoutError",
    "BrokenProcessPool",
)


def _signature(result) -> tuple:
    """Every deterministic observable of one experiment result.

    Exact (unrounded) floats and the full resident set: two runs agree
    on this tuple iff they are bit-identical where it matters.
    """
    report = result.report
    allocation = result.allocation
    return (
        result.energy.total,
        report.total_fetches,
        report.cache_accesses,
        report.cache_hits,
        report.cache_misses,
        report.spm_accesses,
        report.lc_accesses,
        allocation.predicted_energy,
        tuple(sorted(allocation.spm_resident)),
        allocation.solver_status,
    )


def _unit_signatures(result) -> list[tuple] | None:
    """Per-point signatures of one grid chunk's result list.

    One signature per capacity step, or ``None`` when the unit
    produced nothing.
    """
    if result is None:
        return None
    return [_signature(step) for step in result]


@dataclass
class ChaosResult:
    """Verdict and accounting of one chaos differential run.

    Attributes:
        workload: the workload swept.
        points: number of design points compared.
        ok: no divergences and every faulty-run point produced a
            result.
        divergences: human-readable descriptions of every point whose
            faulty-run observables differ from the clean run.
        injected: faults observed — parent-side metric count plus
            worker-side faults surfaced as healed point errors.
        site_counts: injected-fault counts per site (best effort:
            worker-side fires on failed attempts are attributed to
            their site only when the error record names it).
        retries: ``resilience.retries`` during the faulty run.
        degraded: ``resilience.degraded_points`` during the faulty run.
        failed: points with no result after healing.
        pool_restarts: ``resilience.pool_restarts`` during the run.
        kernel_fallbacks: ``resilience.kernel_fallbacks`` during it.
        quarantined: artifacts moved to quarantine by the faulty run.
        outcome_counts: outcome-status histogram of the faulty run.
        failure_report: the healed run's non-``ok`` outcome report.
    """

    workload: str
    points: int
    ok: bool
    divergences: list[str] = field(default_factory=list)
    injected: int = 0
    site_counts: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    degraded: int = 0
    failed: int = 0
    pool_restarts: int = 0
    kernel_fallbacks: int = 0
    quarantined: int = 0
    outcome_counts: dict[str, int] = field(default_factory=dict)
    failure_report: str = ""

    def render(self) -> str:
        """Multi-line human-readable report of the run."""
        lines = [
            f"chaos: {self.workload}, {self.points} points — "
            + ("OK (bit-identical under faults)" if self.ok
               else "DIVERGED"),
            f"  faults injected   {self.injected}",
        ]
        for site in sorted(self.site_counts):
            lines.append(f"    {site:<15} {self.site_counts[site]}")
        lines.append(f"  retries           {self.retries}")
        lines.append(f"  degraded points   {self.degraded}")
        lines.append(f"  failed points     {self.failed}")
        lines.append(f"  pool restarts     {self.pool_restarts}")
        lines.append(f"  kernel fallbacks  {self.kernel_fallbacks}")
        lines.append(f"  quarantined       {self.quarantined}")
        if self.outcome_counts:
            summary = ", ".join(
                f"{status}={count}"
                for status, count in sorted(self.outcome_counts.items())
            )
            lines.append(f"  outcomes          {summary}")
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence}")
        if self.failure_report:
            for line in self.failure_report.splitlines():
                lines.append(f"  healed: {line}")
        return "\n".join(lines)


def _count_worker_faults(healed: HealedRun) -> dict[str, int]:
    """Fault witnesses per site from healed point-error records.

    Worker-side faults that killed an attempt never merge their
    metrics back (the attempt died with them); the structured error on
    the point outcome is their witness.  Errors without a recorded
    site are tallied under ``worker.exec`` — the only site that can
    fail a pooled attempt anonymously.
    """
    counts: dict[str, int] = {}
    for outcome in healed.outcomes:
        error = outcome.error
        if error is None or error["type"] not in _FAULT_ERROR_TYPES:
            continue
        site = error["site"] or "worker.exec"
        counts[site] = counts.get(site, 0) + 1
    return counts


def run_chaos(
    workload: str = "tiny",
    sizes: tuple[int, ...] | list[int] | None = None,
    algorithms: tuple[str, ...] | list[str] = DEFAULT_ALGORITHMS,
    plan: FaultPlan | None = None,
    spec: str | None = None,
    scale: float = 0.2,
    seed: int = 0,
    jobs: int = 1,
    policy: RetryPolicy | None = None,
) -> ChaosResult:
    """Run the chaos differential gate on one workload.

    Args:
        workload: registered workload name.
        sizes: scratchpad sizes to sweep (default :data:`DEFAULT_SIZES`).
        algorithms: allocators to sweep (default
            :data:`DEFAULT_ALGORITHMS`).
        plan: the fault plan of the faulty pass (wins over *spec*).
        spec: plan as a ``$CASA_FAULTS``-syntax string.
        scale: workload trip-count multiplier.
        seed: executor seed.
        jobs: worker processes of the faulty pass (the clean pass is
            always serial — it is the reference).
        policy: retry/timeout policy of the faulty pass.

    Returns:
        A :class:`ChaosResult`; ``result.ok`` is the gate verdict.
    """
    if plan is None:
        plan = FaultPlan.from_spec(spec) if spec else FaultPlan()
    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    # One policy-varied configuration rides along with every chaos
    # sweep: the workload's cache made 2-way LFU, so the healing
    # ladder is proven over a non-default replacement policy (the
    # per-config vector fallback path) too.
    from repro.workloads.registry import get_workload

    varied_cache = replace(
        get_workload(workload, scale=scale).cache,
        associativity=2, policy="lfu",
    )
    varied_algorithm = algorithms[0]
    units = [
        GridChunk(workload=workload, spm_sizes=sizes,
                  algorithm=algorithm, scale=scale, seed=seed)
        for algorithm in algorithms
    ]
    units.append(GridChunk(
        workload=workload, spm_sizes=sizes[:1],
        algorithm=varied_algorithm, scale=scale, seed=seed,
        cache=varied_cache,
    ))
    labels = [
        [replace(unit, spm_sizes=(size,)).label
         for size in unit.spm_sizes]
        for unit in units
    ]
    labels[-1] = [label + "[lfu,2way]" for label in labels[-1]]
    total_points = sum(len(group) for group in labels)

    # Reference pass: serial, memory-only store, injection disabled.
    log_event("chaos.pass", phase="clean", units=len(units))
    previous_plan = set_fault_plan(None)
    previous_store = set_default_store(ArtifactStore())
    try:
        clean = map_points_healed(units, jobs=1)
    finally:
        set_default_store(previous_store)
        set_fault_plan(previous_plan)
    clean_signatures = [
        _unit_signatures(result) for result in clean.results
    ]

    # Faulty pass: throwaway disk cache, warmed then stripped of its
    # memory tier so store.read faults hit real artifacts; dedicated
    # metrics registry so the accounting is exact.  The final "result"
    # stage is evicted from the warm cache so every point re-runs its
    # allocation and simulation — otherwise the ilp.solve and
    # kernel.replay sites would sit behind a cache hit and never fire.
    log_event("chaos.pass", phase="faulty", units=len(units),
              jobs=jobs)
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="casa-chaos-") as tmp:
        store = ArtifactStore(cache_dir=tmp)
        previous_store = set_default_store(store)
        previous_plan = set_fault_plan(None)
        try:
            map_points_healed(units, jobs=1)  # warm the disk tier
            store.clear(memory=True, disk=False)
            for path in store.disk_entries():
                if path.name.startswith("result-"):
                    path.unlink()
            plan.reset()
            set_fault_plan(plan)
            previous_registry = set_registry(registry)
            try:
                faulty = map_points_healed(
                    units, jobs=jobs, policy=policy, cache_dir=tmp)
            finally:
                set_registry(previous_registry)
        finally:
            set_default_store(previous_store)
            set_fault_plan(previous_plan)
        quarantined = store.stats.quarantined

    divergences = []
    for index, unit_labels in enumerate(labels):
        outcome = faulty.outcomes[index]
        expected = clean_signatures[index]
        if outcome.result is None:
            divergences.append(
                f"{' '.join(unit_labels)}: no result after healing "
                f"({outcome.error['type'] if outcome.error else '?'})"
            )
            continue
        actual = _unit_signatures(outcome.result)
        if expected is None:
            divergences.append(
                f"{' '.join(unit_labels)}: clean run failed to "
                f"evaluate")
            continue
        for label, exp, act in zip(unit_labels, expected, actual):
            if exp != act:
                divergences.append(
                    f"{label}: clean {exp} != faulty {act}"
                )

    site_counts = {
        name[len("faults.injected."):]: int(registry.value(name))
        for name in registry.names()
        if name.startswith("faults.injected.")
    }
    worker_faults = _count_worker_faults(faulty) if jobs > 1 else {}
    for site, count in worker_faults.items():
        site_counts[site] = site_counts.get(site, 0) + count
    injected = int(registry.value("faults.injected")) \
        + sum(worker_faults.values())

    # Surface the faulty pass's resilience counters to any registry
    # the caller (e.g. ``repro chaos --metrics``) has installed.
    outer = active_registry()
    if outer is not None:
        outer.merge(registry.snapshot())

    counts = faulty.counts()
    log_event("chaos.done", ok=not divergences and faulty.ok,
              injected=injected, points=total_points)
    return ChaosResult(
        workload=workload,
        points=total_points,
        ok=not divergences and faulty.ok,
        divergences=divergences,
        injected=injected,
        site_counts=site_counts,
        retries=int(registry.value("resilience.retries")),
        degraded=int(registry.value("resilience.degraded_points")),
        failed=counts.get("failed", 0),
        pool_restarts=int(registry.value("resilience.pool_restarts")),
        kernel_fallbacks=int(
            registry.value("resilience.kernel_fallbacks")),
        quarantined=quarantined,
        outcome_counts=counts,
        failure_report=faulty.failure_report(),
    )
