"""Instruction-memory hierarchy simulation.

Re-implementation of the in-house *memsim* tool the paper cites [8]: a
set-associative I-cache with per-line owner tracking (so every conflict
miss is attributed to the memory object that caused it), a scratchpad, a
preloaded loop cache with its controller, and main memory — driven by the
executed basic-block sequence through the fetch plans of a
:class:`~repro.traces.layout.LinkedImage`.

The configurations live in :mod:`repro.memory.config`, apart from the
reference interpreters, which load only when a simulation needs them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Cache",
    "CacheConfig",
    "HierarchyConfig",
    "InstructionMemorySimulator",
    "simulate",
    "LoopCache",
    "LoopCacheConfig",
    "LoopRegion",
    "MainMemory",
    "POLICIES",
    "ArcPolicy",
    "FifoPolicy",
    "LfuPolicy",
    "LruPolicy",
    "OptOracle",
    "OptPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "TwoQPolicy",
    "available_policies",
    "make_policy",
    "Scratchpad",
    "MemoryObjectStats",
    "SimulationReport",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.cache": ("Cache",),
    "repro.memory.config": (
        "CacheConfig",
        "HierarchyConfig",
        "LoopCacheConfig",
        "LoopRegion",
    ),
    "repro.memory.hierarchy": ("InstructionMemorySimulator", "simulate"),
    "repro.memory.loopcache": ("LoopCache",),
    "repro.memory.mainmem": ("MainMemory",),
    "repro.memory.replacement": (
        "POLICIES",
        "ArcPolicy",
        "FifoPolicy",
        "LfuPolicy",
        "LruPolicy",
        "OptOracle",
        "OptPolicy",
        "RandomPolicy",
        "ReplacementPolicy",
        "TwoQPolicy",
        "available_policies",
        "make_policy",
    ),
    "repro.memory.scratchpad": ("Scratchpad",),
    "repro.memory.stats": ("MemoryObjectStats", "SimulationReport"),
})
