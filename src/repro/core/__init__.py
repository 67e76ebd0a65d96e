"""The paper's contribution: cache-aware scratchpad allocation.

* :mod:`repro.core.conflict_graph` — the conflict graph G = (X, E) of
  section 3.3, built from an attributed cache simulation;
* :mod:`repro.core.casa` — the CASA ILP (eqs. 7-17) solved exactly;
* :mod:`repro.core.steinke` — the Steinke et al. (DATE 2002) cache-blind
  knapsack baseline;
* :mod:`repro.core.ross` — the Ross/Gordon-Ross & Vahid preloaded
  loop-cache allocator;
* :mod:`repro.core.greedy_allocator` — a greedy CASA variant (ablation);
* :mod:`repro.core.multi_spm` — the multi-scratchpad extension the
  paper sketches in section 4;
* :mod:`repro.core.pipeline` — the end-to-end experimental workflow of
  figure 3.

Every allocator conforms to the :class:`Allocator` protocol —
``allocate(graph, capacity, energy, *, context)`` — and can be built
by name through :func:`make_allocator`, which is what the
:class:`repro.api.Session` facade and the CLI use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro._lazy import lazy_exports
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.allocation import AllocationContext
    from repro.core.conflict_graph import ConflictGraph
    from repro.energy.model import EnergyModel


@runtime_checkable
class Allocator(Protocol):
    """The unified allocator interface.

    Every allocation method — CASA's ILP, Steinke's knapsack, the
    greedy and annealing ablations, Ross's loop-cache heuristic, the
    multi-scratchpad extension — exposes one entry point:

    ``allocate(graph, capacity, energy, *, context)``

    where *graph* is the profiled conflict graph, *capacity* the
    scratchpad / loop-cache budget in bytes, *energy* the per-event
    energy model, and *context* an optional
    :class:`~repro.core.allocation.AllocationContext` carrying the
    profiled program, memory objects and baseline image for methods
    that inspect program structure (Ross).  Allocators ignore the
    inputs they do not need.
    """

    name: str

    def allocate(
        self,
        graph: ConflictGraph,
        capacity: int | None = None,
        energy: EnergyModel | None = None,
        *,
        context: AllocationContext | None = None,
    ) -> Any:
        """Decide an allocation for *graph* within *capacity* bytes."""
        ...


#: The allocator class and, for allocators configured through one, the
#: config class its options build, keyed by canonical (lower-case,
#: dash) name.  Both resolve through this package's lazy exports, so
#: :func:`make_allocator` imports only the allocator it builds.
_ALLOCATOR_CLASSES = {
    "casa": ("CasaAllocator", "CasaConfig"),
    "steinke": ("SteinkeAllocator", None),
    "greedy": ("GreedyCasaAllocator", None),
    "greedy-casa": ("GreedyCasaAllocator", None),
    "anneal": ("AnnealingAllocator", "AnnealingConfig"),
    "annealing": ("AnnealingAllocator", "AnnealingConfig"),
    "ross": ("RossLoopCacheAllocator", "LoopCacheConfig"),
    "multi-spm": ("MultiScratchpadAllocator", None),
    "casa-multi-spm": ("MultiScratchpadAllocator", None),
}

#: Canonical names :func:`make_allocator` accepts.
ALLOCATOR_NAMES = tuple(sorted(_ALLOCATOR_CLASSES))


def make_allocator(name: str, **cfg: Any) -> Allocator:
    """Build an allocator by name.

    Args:
        name: one of :data:`ALLOCATOR_NAMES` (case-insensitive;
            underscores and dashes are interchangeable).
        **cfg: options forwarded to the allocator's configuration —
            e.g. ``make_allocator("casa", conflict_term=False)``,
            ``make_allocator("ross", size=256, max_regions=4)`` or
            ``make_allocator("anneal", iterations=2000)``.

    Raises:
        ConfigurationError: for an unknown name or options the named
            allocator does not accept.
    """
    key = name.strip().lower().replace("_", "-")
    if key not in _ALLOCATOR_CLASSES:
        raise ConfigurationError(
            f"unknown allocator {name!r}; choose from "
            f"{', '.join(ALLOCATOR_NAMES)}"
        )
    allocator, config = _ALLOCATOR_CLASSES[key]
    try:
        if config is None:
            return __getattr__(allocator)(**cfg)
        return __getattr__(allocator)(__getattr__(config)(**cfg))
    except TypeError as exc:
        raise ConfigurationError(
            f"bad options for allocator {name!r}: {exc}"
        ) from None


__all__ = [
    "ALLOCATOR_NAMES",
    "Allocation",
    "AllocationContext",
    "Allocator",
    "make_allocator",
    "AnnealingAllocator",
    "AnnealingConfig",
    "OverlayAllocation",
    "OverlayAllocator",
    "OverlayConfig",
    "PhasedConflictData",
    "Phase",
    "PhasePartition",
    "detect_phases",
    "ConflictAwarePlacer",
    "PlacementResult",
    "CasaAllocator",
    "CasaConfig",
    "ConflictGraph",
    "ConflictNode",
    "GreedyCasaAllocator",
    "MultiScratchpadAllocator",
    "ScratchpadSpec",
    "ExperimentResult",
    "Workbench",
    "WorkbenchConfig",
    "RossLoopCacheAllocator",
    "SteinkeAllocator",
    "UnifiedAllocation",
    "UnifiedCasaAllocator",
    "unified_steinke",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.allocation": ("Allocation", "AllocationContext"),
    "repro.core.annealing": ("AnnealingAllocator", "AnnealingConfig"),
    "repro.core.casa": ("CasaAllocator", "CasaConfig"),
    "repro.core.conflict_graph": ("ConflictGraph", "ConflictNode"),
    "repro.core.greedy_allocator": ("GreedyCasaAllocator",),
    "repro.core.multi_spm": ("MultiScratchpadAllocator", "ScratchpadSpec"),
    "repro.core.overlay": (
        "OverlayAllocation",
        "OverlayAllocator",
        "OverlayConfig",
        "PhasedConflictData",
    ),
    "repro.core.phases": ("Phase", "PhasePartition", "detect_phases"),
    "repro.core.placement": ("ConflictAwarePlacer", "PlacementResult"),
    "repro.core.pipeline": (
        "ExperimentResult",
        "Workbench",
        "WorkbenchConfig",
    ),
    "repro.core.ross": ("RossLoopCacheAllocator",),
    "repro.core.steinke": ("SteinkeAllocator",),
    "repro.core.unified": (
        "UnifiedAllocation",
        "UnifiedCasaAllocator",
        "unified_steinke",
    ),
    "repro.memory.config": ("LoopCacheConfig",),
})
