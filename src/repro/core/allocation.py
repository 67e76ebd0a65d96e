"""Allocation results and inputs shared by all allocators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.memory.config import LoopRegion
from repro.traces.layout import Placement

if TYPE_CHECKING:
    from repro.program.program import Program
    from repro.traces.layout import LinkedImage
    from repro.traces.memory_object import MemoryObject


@dataclass(frozen=True)
class AllocationContext:
    """Profiling context an allocator may consult beyond the graph.

    Most allocators decide from the conflict graph and the energy
    model alone; the ones that inspect program structure (Ross's
    loop-region heuristic) additionally receive the profiled program,
    its memory objects and the baseline linked image through this
    bundle.  The unified ``allocate(graph, capacity, energy, *,
    context)`` protocol (see :class:`repro.core.Allocator`) passes it
    to every allocator, which is free to ignore it.

    Attributes:
        program: the profiled program.
        memory_objects: the trace-formation output.
        image: the baseline (cache-only) linked image.
        extras: free-form additional inputs for future allocators.
    """

    program: "Program | None" = None
    memory_objects: "list[MemoryObject] | None" = None
    image: "LinkedImage | None" = None
    extras: dict[str, Any] | None = None


@dataclass
class Allocation:
    """Decision of one allocator.

    Attributes:
        algorithm: allocator name (``casa``, ``steinke``, ``ross`` ...).
        spm_resident: memory objects placed on the scratchpad (empty for
            loop-cache allocations).
        loop_regions: preloaded loop-cache regions (empty for scratchpad
            allocations).
        placement: how the main-memory image treats the residents
            (copy for CASA, compact for Steinke).
        predicted_energy: the allocator's own estimate of the resulting
            energy in nJ (``None`` when the algorithm does not predict
            one, e.g. Ross's greedy heuristic).
        solver_nodes: branch & bound nodes used (0 for non-ILP methods).
        solver_status: solver outcome (``optimal``, ``node_limit``, ...;
            empty for non-ILP methods).
        solver_gap: relative optimality gap the solver proved (``None``
            for non-ILP methods).
        capacity: the scratchpad/loop-cache capacity allocated against.
        used_bytes: bytes of the capacity actually consumed.
    """

    algorithm: str
    spm_resident: frozenset[str] = frozenset()
    loop_regions: tuple[LoopRegion, ...] = ()
    placement: Placement = Placement.COPY
    predicted_energy: float | None = None
    solver_nodes: int = 0
    solver_status: str = ""
    solver_gap: float | None = None
    capacity: int = 0
    used_bytes: int = 0

    @property
    def utilisation(self) -> float:
        """Fraction of the capacity used (0 for a zero-size memory)."""
        if self.capacity == 0:
            return 0.0
        return self.used_bytes / self.capacity

    def describe(self) -> str:
        """One-line summary for reports."""
        if self.loop_regions:
            what = f"{len(self.loop_regions)} regions"
        else:
            what = f"{len(self.spm_resident)} objects"
        return (
            f"{self.algorithm}: {what}, "
            f"{self.used_bytes}/{self.capacity} bytes"
        )
