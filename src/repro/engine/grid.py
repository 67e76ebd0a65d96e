"""Grid chunks: the engine's one schedulable work unit.

A :class:`GridChunk` names a workload, an allocator and a scratchpad
capacity axis; a single design point is the one-size chunk
``GridChunk(workload, spm_sizes=(size,), ...)``.  Evaluating a chunk
profiles the workbench once and solves the capacity steps in
ascending order, each through the workbench's per-size entry point
(and so the shared ``result`` artifacts) — so a sweep schedules one
chunk per allocator.  The one executor,
:func:`~repro.resilience.healing.map_points_healed` (with
:func:`~repro.engine.parallel.map_points` as its strict view),
schedules chunks, and a chunk retries as one unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.runner import StageRunner, make_workbench
from repro.errors import ConfigurationError
from repro.memory.config import CacheConfig
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

    @property
    def label(self) -> str:
        """Short display label: ``tiny/casa@64`` or ``tiny/casa@[64+128]``."""
        axis = "+".join(str(size) for size in self.spm_sizes)
        if len(self.spm_sizes) != 1:
            axis = f"[{axis}]"
        return f"{self.workload}/{self.algorithm}@{axis}"


def check_algorithms(chunks) -> None:
    """Reject any chunk naming an unknown allocator.

    Raises:
        ConfigurationError: for the first unknown algorithm.
    """
    for chunk in chunks:
        if chunk.algorithm not in CHUNK_ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {chunk.algorithm!r}; choose from "
                f"{CHUNK_ALGORITHMS}"
            )


def evaluate_chunk(chunk: GridChunk,
                   runner: StageRunner | None = None
                   ) -> list["ExperimentResult"]:
    """Evaluate one grid chunk through the staged engine.

    Args:
        chunk: the capacity axis to evaluate.
        runner: stage runner to resolve through (defaults to a fresh
            runner on the process-wide store).

    Returns:
        One result per entry of ``chunk.spm_sizes``, in input order.

    Raises:
        ConfigurationError: for an unknown algorithm.
    """
    check_algorithms([chunk])
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
