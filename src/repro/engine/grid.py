"""Grid chunks: whole capacity axes as schedulable work units.

A :class:`GridChunk` is the grid-native sibling of
:class:`~repro.engine.parallel.PointSpec`: instead of one (workload,
capacity, allocator) triple it names a workload, an allocator and the
*whole* scratchpad-size axis.  Evaluating a chunk profiles the
workbench once, replays the cache work through the shared grid
artifacts and solves the capacity steps in ascending order — so a
sweep schedules one chunk per allocator rather than ``len(sizes)``
independent points, while
:func:`~repro.engine.parallel.map_points` and the self-healing
:func:`~repro.resilience.healing.map_points_healed` treat chunks
exactly like points (retry ladder included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.runner import StageRunner, make_workbench
from repro.errors import ConfigurationError
from repro.memory.cache import CacheConfig
from repro.obs.trace import span
from repro.resilience.faults import maybe_inject
from repro.traces.tracegen import TraceGenConfig

if TYPE_CHECKING:
    from repro.core.pipeline import ExperimentResult

#: Algorithms a grid chunk may name (``baseline`` = cache-only).
CHUNK_ALGORITHMS = ("casa", "steinke", "greedy", "ross", "baseline")


@dataclass(frozen=True)
class GridChunk:
    """One allocator evaluated across a whole capacity axis.

    Attributes:
        workload: registered workload name.
        spm_sizes: scratchpad / loop-cache capacities in bytes, in the
            order results are wanted (``baseline`` ignores the values
            but returns one result per entry).
        algorithm: one of :data:`CHUNK_ALGORITHMS`.
        scale: workload trip-count multiplier.
        seed: executor seed.
        cache: I-cache override (``None`` = the workload's default).
        tracegen: trace-formation override (``None`` = derived from
            the cache line size and the workload's smallest
            scratchpad).
        max_regions: preloadable regions for the ``ross`` allocator.
        backend: simulation backend (``reference`` | ``vector`` |
            ``auto``; ``None`` defers to ``CASA_BACKEND``, then
            ``auto``).
    """

    workload: str
    spm_sizes: tuple[int, ...]
    algorithm: str = "casa"
    scale: float = 1.0
    seed: int = 0
    cache: CacheConfig | None = None
    tracegen: TraceGenConfig | None = None
    max_regions: int = 4
    backend: str | None = None


def evaluate_chunk(chunk: GridChunk,
                   runner: StageRunner | None = None
                   ) -> list["ExperimentResult"]:
    """Evaluate one grid chunk through the staged engine.

    Args:
        chunk: the capacity axis to evaluate.
        runner: stage runner to resolve through (defaults to a fresh
            runner on the process-wide store).

    Returns:
        One result per entry of ``chunk.spm_sizes``, in input order —
        bit-identical to evaluating the corresponding
        :class:`~repro.engine.parallel.PointSpec` list (the
        ``repro verify-grid`` gate enforces this).

    Raises:
        ConfigurationError: for an unknown algorithm.
    """
    if chunk.algorithm not in CHUNK_ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {chunk.algorithm!r}; choose from "
            f"{CHUNK_ALGORITHMS}"
        )
    runner = runner if runner is not None else StageRunner()
    with span("chunk.evaluate", workload=chunk.workload,
              algorithm=chunk.algorithm, sizes=len(chunk.spm_sizes),
              scale=chunk.scale, seed=chunk.seed):
        maybe_inject("worker.exec", workload=chunk.workload,
                     algorithm=chunk.algorithm,
                     spm_sizes=chunk.spm_sizes)
        _, bench = make_workbench(
            chunk.workload, chunk.scale, chunk.seed,
            cache=chunk.cache, tracegen=chunk.tracegen, runner=runner,
            backend=chunk.backend,
        )
        return bench.run_grid(chunk.algorithm, chunk.spm_sizes,
                              max_regions=chunk.max_regions)
