"""repro — Cache-Aware Scratchpad Allocation (CASA), reproduced.

A from-scratch Python implementation of M. Verma, L. Wehmeyer and
P. Marwedel, *"Cache-Aware Scratchpad Allocation Algorithm"*, DATE 2004:
the CASA ILP allocator plus every substrate the paper's evaluation
needs — an ARM-like program model and executor, trace generation, a
set-associative I-cache simulator with conflict attribution, scratchpad
and preloaded-loop-cache models, CACTI-style energy models, an ILP
solver, the Steinke and Ross baselines, and the figure/table harnesses.

Quickstart::

    from repro import Session

    session = Session("mpeg", spm_size=256, scale=0.1)
    result = session.evaluate("casa")
    print(result.energy.total, result.allocation.spm_resident)

:class:`~repro.api.Session` wraps the full figure-3 pipeline; the
underlying pieces (:class:`~repro.core.pipeline.Workbench`, the
allocator classes, :func:`~repro.core.make_allocator`) stay public
for fine-grained control.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ALLOCATOR_NAMES",
    "Allocation",
    "Allocator",
    "Session",
    "make_allocator",
    "CasaAllocator",
    "CasaConfig",
    "ConflictGraph",
    "ExperimentResult",
    "GreedyCasaAllocator",
    "MultiScratchpadAllocator",
    "RossLoopCacheAllocator",
    "ScratchpadSpec",
    "SteinkeAllocator",
    "Workbench",
    "WorkbenchConfig",
    "EnergyModel",
    "build_energy_model",
    "compute_energy",
    "CacheConfig",
    "HierarchyConfig",
    "LoopCacheConfig",
    "Program",
    "execute_program",
    "TraceGenConfig",
    "generate_traces",
    "available_workloads",
    "get_workload",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api": ("Session",),
    "repro.core": (
        "ALLOCATOR_NAMES",
        "Allocation",
        "Allocator",
        "make_allocator",
        "CasaAllocator",
        "CasaConfig",
        "ConflictGraph",
        "ExperimentResult",
        "GreedyCasaAllocator",
        "MultiScratchpadAllocator",
        "RossLoopCacheAllocator",
        "ScratchpadSpec",
        "SteinkeAllocator",
        "Workbench",
        "WorkbenchConfig",
    ),
    "repro.energy": ("EnergyModel", "build_energy_model", "compute_energy"),
    "repro.memory": ("CacheConfig", "HierarchyConfig", "LoopCacheConfig"),
    "repro.program": ("Program", "execute_program"),
    "repro.traces": ("TraceGenConfig", "generate_traces"),
    "repro.workloads": ("available_workloads", "get_workload"),
})
