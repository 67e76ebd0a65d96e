"""Grid differential gate: the kernel paths vs. the reference simulator.

The kernel's contract is that it changes *nothing* but wall-clock
time: one :func:`~repro.memory.kernel.grid.simulate_grid` pass over a
fetch stream must produce byte-identical
:class:`~repro.memory.stats.SimulationReport`\\ s to per-configuration
simulation, and a full sweep (grid chunks over the vector backend)
must produce byte-identical reports *and*
:class:`~repro.core.allocation.Allocation`\\ s to the same sweep over
the reference backend.  This module checks that contract from three
directions:

1. **Coverage** — the verification axis itself must partition into at
   least one single-pass scan group; a zero-coverage grid means every
   configuration silently fell back to per-config replay and the gate
   proved nothing.
2. **Replay** — committed workloads' baseline and scratchpad-resident
   streams are replayed through :func:`simulate_grid` across the
   line-size × associativity LRU cross product (plus one
   set-associative configuration per non-stack policy — FIFO, LFU,
   2Q — exercising the grid's own per-config fallback) and compared
   field by field against the reference simulator.
3. **Sweep** — a full allocator sweep runs twice on fresh artifact
   stores, once on the ``vector`` backend and once on the
   ``reference`` backend, and every (size, allocator) cell is
   compared: full report, energy total, and every :class:`Allocation`
   field in :data:`ALLOCATION_FIELDS` — solver effort included, since
   both sides are cold solves of the same model.

``repro verify-grid`` runs all three and exits non-zero on any
difference; ``make test`` gates on it next to ``verify-kernel`` and
``chaos``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.engine.store import ArtifactStore, set_default_store
from repro.memory.config import CacheConfig
from repro.memory.kernel import (
    SweepGrid,
    VerifyCase,
    report_differences,
    simulate_grid,
)
from repro.memory.kernel.verify import (
    ASSOCIATIVITIES,
    LINE_SIZES,
    workload_images,
)
from repro.obs.trace import span

#: Default workloads of the replay and sweep checks.
DEFAULT_WORKLOADS = ("tiny", "adpcm")

#: Allocators of the sweep-level check.
DEFAULT_ALGORITHMS = ("casa", "steinke", "ross")

#: Allocation fields that must match bit-for-bit between the kernel-
#: and reference-backend sweeps.  Both sides solve the same ILP from
#: cold, so the solver's effort (``solver_nodes``) must agree too.
ALLOCATION_FIELDS = (
    "algorithm",
    "spm_resident",
    "loop_regions",
    "placement",
    "predicted_energy",
    "solver_status",
    "solver_nodes",
    "solver_gap",
    "capacity",
    "used_bytes",
)


@dataclass(frozen=True)
class GridVerifyReport:
    """Outcome of one full grid-verification run."""

    cases: tuple[VerifyCase, ...]

    @property
    def ok(self) -> bool:
        """Whether every case passed."""
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list[VerifyCase]:
        """The cases that found a difference."""
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        """Human-readable verdict, one line per failing case."""
        by_kind: Counter = Counter(case.kind for case in self.cases)
        coverage = ", ".join(
            f"{count} {kind}" for kind, count in sorted(by_kind.items())
        )
        lines = [f"grid differential verification: "
                 f"{len(self.cases)} cases ({coverage})"]
        if self.ok:
            lines.append(
                "  OK — the kernel paths match the reference simulator "
                "bit-for-bit"
            )
            return "\n".join(lines)
        lines.append(f"  {len(self.failures)} FAILING CASES:")
        for case in self.failures:
            lines.append(f"  - [{case.kind}] {case.description}")
            for diff in case.differences[:8]:
                lines.append(f"      {diff}")
            hidden = len(case.differences) - 8
            if hidden > 0:
                lines.append(f"      ... and {hidden} more")
        return "\n".join(lines)


# -- the verification axis ----------------------------------------------------


def verification_axis(spm_size: int) -> SweepGrid:
    """The cache axis the replay check sweeps.

    The full line-size × associativity LRU cross product at a fixed
    small capacity (so conflicts occur), plus one set-associative
    configuration per non-stack kernel-supported policy (FIFO, LFU,
    2Q) that the single-pass scan cannot cover — proving the grid's
    own per-config fallback path returns exact results too.
    """
    from repro.memory.config import HierarchyConfig

    configs = []
    for line_size in LINE_SIZES:
        for associativity in ASSOCIATIVITIES:
            configs.append(HierarchyConfig(
                cache=CacheConfig(
                    size=line_size * associativity * 4,
                    line_size=line_size,
                    associativity=associativity,
                    policy="lru",
                ),
                spm_size=spm_size,
            ))
    for policy in ("fifo", "lfu", "2q"):
        configs.append(HierarchyConfig(
            cache=CacheConfig(size=128, line_size=16, associativity=2,
                              policy=policy),
            spm_size=spm_size,
        ))
    return SweepGrid.of(configs)


# -- check 1: grid coverage ---------------------------------------------------


def _coverage_case(grid: SweepGrid) -> VerifyCase:
    """The axis must have at least one single-pass scan group."""
    covered, fallback = grid.coverage()
    differences: tuple[str, ...] = ()
    if covered == 0:
        differences = (
            f"zero-coverage grid: 0 of {len(grid)} configurations "
            f"are single-pass scannable ({fallback} fallbacks) — the "
            f"replay check would only exercise the per-config path",
        )
    description = (
        f"verification axis: {covered} covered + {fallback} fallback "
        f"of {len(grid)} configurations"
    )
    return VerifyCase("coverage", description, differences)


# -- check 2: single-pass replay vs. reference --------------------------------


def _replay_cases(workload_name: str, scale: float,
                  seed: int) -> list[VerifyCase]:
    """Grid-replay-vs-reference cases for one workload's images."""
    from repro.memory.hierarchy import simulate
    from repro.memory.kernel.stream import compile_stream

    bench, images = workload_images(workload_name, scale, seed)
    config = bench.config
    cases: list[VerifyCase] = []
    for label, image, spm_size in images:
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=config.spm_base)
        grid = verification_axis(spm_size)
        actual_reports = simulate_grid(stream, grid,
                                       spm_base=config.spm_base)
        for hierarchy, actual in zip(grid, actual_reports):
            expected = simulate(
                image, hierarchy, bench.block_sequence,
                spm_base=config.spm_base, backend="reference",
            )
            cache = hierarchy.cache
            description = (
                f"{workload_name}/{label} size={cache.size} "
                f"line={cache.line_size} assoc={cache.associativity} "
                f"policy={cache.policy}"
            )
            cases.append(VerifyCase(
                "replay", description,
                tuple(report_differences(expected, actual)),
            ))
    return cases


# -- check 3: kernel-backend sweep vs. reference-backend sweep ----------------


def allocation_differences(expected, actual) -> list[str]:
    """Every compared Allocation field where two decisions disagree.

    ``expected`` is the reference-backend decision, ``actual`` the
    kernel-backend one; see :data:`ALLOCATION_FIELDS` for the
    compared set.
    """
    differences = []
    for field_name in ALLOCATION_FIELDS:
        expected_value = getattr(expected, field_name)
        actual_value = getattr(actual, field_name)
        if expected_value != actual_value:
            differences.append(
                f"allocation.{field_name}: reference "
                f"{expected_value!r} != kernel {actual_value!r}"
            )
    return differences


def _sweep_cases(workload_name: str, scale: float, seed: int,
                 algorithms: tuple[str, ...]) -> list[VerifyCase]:
    """Kernel-vs-reference cases across one workload's full sweep.

    Both passes run serially on fresh in-memory artifact stores —
    stage digests do not name the backend, so a shared store would
    serve one pass from the other's results.  Every cell is genuinely
    computed twice, once per simulation backend.
    """
    from repro.evaluation.sweep import run_sweep

    def sweep_pass(backend: str):
        previous = set_default_store(ArtifactStore())
        try:
            return run_sweep(
                workload_name, algorithms=algorithms, scale=scale,
                seed=seed, backend=backend,
            )
        finally:
            set_default_store(previous)

    expected_points = sweep_pass("reference")
    actual_points = sweep_pass("vector")
    cases: list[VerifyCase] = []
    for expected_point, actual_point in zip(expected_points,
                                            actual_points):
        for algorithm in algorithms:
            expected = expected_point.result(algorithm)
            actual = actual_point.result(algorithm)
            differences = report_differences(expected.report,
                                             actual.report)
            differences += allocation_differences(
                expected.allocation, actual.allocation
            )
            if expected.energy.total != actual.energy.total:
                differences.append(
                    f"energy.total: reference "
                    f"{expected.energy.total!r} != kernel "
                    f"{actual.energy.total!r}"
                )
            description = (
                f"{workload_name}/{algorithm}"
                f"@{expected_point.spm_size}"
            )
            cases.append(VerifyCase("sweep", description,
                                    tuple(differences)))
    return cases


# -- entry point --------------------------------------------------------------


def verify_grid(
    workloads: tuple[str, ...] | list[str] | None = None,
    seed: int = 0,
    scale: float = 1.0,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
) -> GridVerifyReport:
    """Run the full grid differential gate.

    Args:
        workloads: workload names of the replay and sweep checks
            (default :data:`DEFAULT_WORKLOADS`).
        seed: executor seed of every run.
        scale: workload trip-count multiplier.
        algorithms: allocators of the sweep-level check.

    Returns:
        A :class:`GridVerifyReport`; ``report.ok`` is the verdict.
    """
    names = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    cases: list[VerifyCase] = []
    with span("grid.verify", workloads=len(names)) as verify_span:
        cases.append(_coverage_case(verification_axis(0)))
        for workload_name in names:
            cases.extend(_replay_cases(workload_name, scale, seed))
            cases.extend(_sweep_cases(workload_name, scale, seed,
                                      algorithms))
        report = GridVerifyReport(tuple(cases))
        verify_span.add(cases=len(cases),
                        failures=len(report.failures))
    return report
