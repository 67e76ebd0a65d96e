"""Vectorized simulation kernel (the ``vector`` backend).

The reference simulator in :mod:`repro.memory.hierarchy` interprets the
fetch stream word by word in Python — clear, but slow.  This package
trades the interpreter for three array passes:

1. :func:`~repro.memory.kernel.stream.compile_stream` compiles an
   executed block sequence once into layout-free segment arrays (a
   :class:`~repro.memory.kernel.stream.CompiledSequence` — cacheable
   as an engine artifact) and links them onto a layout as compact
   int64/int32 arrays (a :class:`~repro.memory.kernel.stream.FetchStream`);
   any other layout of the same memory objects is two gathers away
   (:meth:`~repro.memory.kernel.stream.CompiledSequence.link`);
2. the stream is expanded into cache-line probes per line size (memoised
   on the stream, so a multi-configuration sweep pays it once);
3. :func:`~repro.memory.kernel.vector.simulate_stream` replays the
   probes through a set-associative LRU/FIFO/LFU/2Q cache model with
   conflict-miss attribution — fully vectorized for direct-mapped
   caches, per-set chronological replay over small arrays otherwise;
   a preloaded loop cache first masks out the words its regions
   serve — and emits a :class:`~repro.memory.stats.SimulationReport` that is
   bit-identical to the reference simulator's (same counters, same
   dict/Counter insertion orders).

:func:`~repro.memory.kernel.grid.simulate_grid` replays every LRU
geometry of a :class:`~repro.memory.kernel.grid.SweepGrid` over one
stream in one stack-distance pass per (line size, set count) group.
The differential harnesses in :mod:`repro.memory.kernel.verify` back the
``repro verify-kernel`` and ``repro verify-grid`` commands.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CompiledSequence",
    "FetchStream",
    "KernelUnsupported",
    "ProbeStream",
    "SweepGrid",
    "VerifyCase",
    "VerifyReport",
    "compile_stream",
    "report_differences",
    "simulate_grid",
    "simulate_stream",
    "unsupported_reason",
    "verify_kernel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.kernel.grid": ("SweepGrid", "simulate_grid"),
    "repro.memory.kernel.stream": (
        "CompiledSequence",
        "FetchStream",
        "ProbeStream",
        "compile_stream",
    ),
    "repro.memory.kernel.vector": (
        "KernelUnsupported",
        "simulate_stream",
        "unsupported_reason",
    ),
    "repro.memory.kernel.verify": (
        "VerifyCase",
        "VerifyReport",
        "report_differences",
        "verify_kernel",
    ),
})
