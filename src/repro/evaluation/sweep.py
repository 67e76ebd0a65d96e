"""Generic scratchpad-size sweeps over workloads and allocators.

The paper's methodology (section 6): vary the scratchpad / loop-cache
size while keeping the rest of the instruction-memory subsystem
invariant, count the accesses to each level, and compute energy from the
model.  :func:`run_sweep` implements exactly that for any subset of the
allocators; the figure/table modules post-process its output.

Sweeps run through the staged experiment engine.  Each requested
allocator becomes one :class:`~repro.engine.grid.GridChunk` covering
the whole capacity axis: the workbench profiles once and every
capacity step resolves its own ``result`` artifact, shared with any
other caller that evaluates the same (allocator, size) pair.  The
chunks fan through :func:`~repro.engine.parallel.map_points`, so a
sweep can use worker processes (``jobs``), reuses every
allocation-independent stage from the artifact store, and can report
per-stage hit/compute counters through a
:class:`~repro.engine.runner.RunRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import ExperimentResult, Workbench
from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.engine.runner import RunRecord
from repro.engine.runner import make_workbench as _engine_make_workbench
from repro.errors import ConfigurationError
from repro.workloads.registry import Workload, get_workload

#: Allocator identifiers accepted by :func:`run_sweep`.
ALGORITHMS = ("casa", "steinke", "greedy", "ross")


def make_workbench(workload_name: str, scale: float = 1.0,
                   seed: int = 0, backend: str | None = None
                   ) -> tuple[Workload, Workbench]:
    """Build (and cache) the profiled workbench of a named workload.

    Thin compatibility wrapper over the engine's
    :func:`repro.engine.runner.make_workbench`, which memoises the
    workbench in the artifact store's memory tier (replacing the old
    eight-entry ``functools.lru_cache`` that sweeps over many
    workloads/scales silently thrashed, and whose float ``scale`` keys
    defeated reuse between ``1`` and ``1.0``).
    """
    return _engine_make_workbench(workload_name, scale, seed,
                                  backend=backend)


@dataclass
class SweepPoint:
    """All requested allocators evaluated at one scratchpad size."""

    workload: str
    spm_size: int
    results: dict[str, ExperimentResult]

    def result(self, algorithm: str) -> ExperimentResult:
        """Result of one allocator at this size."""
        return self.results[algorithm]

    def energy(self, algorithm: str) -> float:
        """Total energy (nJ) of one allocator at this size."""
        return self.results[algorithm].energy.total

    def improvement(self, algorithm: str, baseline: str) -> float:
        """Energy improvement of *algorithm* over *baseline* in percent."""
        base = self.energy(baseline)
        if base == 0:
            raise ConfigurationError(f"baseline {baseline!r} has no energy")
        return (1.0 - self.energy(algorithm) / base) * 100.0


def run_sweep(
    workload_name: str,
    sizes: tuple[int, ...] | None = None,
    algorithms: tuple[str, ...] = ("casa", "steinke", "ross"),
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    record: RunRecord | None = None,
    backend: str | None = None,
) -> list[SweepPoint]:
    """Evaluate allocators across scratchpad sizes.

    Args:
        workload_name: registered benchmark name.
        sizes: scratchpad/loop-cache sizes in bytes (defaults to the
            benchmark's table 1 sizes).
        algorithms: subset of :data:`ALGORITHMS`.
        scale: workload trip-count multiplier.
        seed: executor seed.
        jobs: worker processes for the work units, one per allocator
            (1 = serial; results are identical either way).
        record: optional engine run record receiving per-stage
            hit/compute counters.
        backend: simulation backend for every design point
            (``reference`` | ``vector`` | ``auto``; ``None`` defers to
            ``CASA_BACKEND``, then ``auto``).

    Returns:
        One :class:`SweepPoint` per size, in ascending size order.
    """
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ConfigurationError(
            f"unknown algorithms {sorted(unknown)}; choose from "
            f"{ALGORITHMS}"
        )
    if sizes is None:
        sizes = get_workload(workload_name, scale=scale).spm_sizes
    chosen_sizes = tuple(sorted(sizes))
    chunks = [
        GridChunk(
            workload=workload_name,
            spm_sizes=chosen_sizes,
            algorithm=algorithm,
            scale=scale,
            seed=seed,
            backend=backend,
        )
        for algorithm in algorithms
    ]
    axes = map_points(chunks, jobs=jobs, record=record)
    return [
        SweepPoint(workload_name, size, {
            algorithm: axes[offset][index]
            for offset, algorithm in enumerate(algorithms)
        })
        for index, size in enumerate(chosen_sizes)
    ]
