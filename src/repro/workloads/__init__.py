"""Workload construction: a structured-code DSL and benchmark models.

:mod:`repro.workloads.builder` compiles a tree of structured statements
(straight-line code, counted loops, probabilistic branches, calls) into
a validated :class:`~repro.program.program.Program`.
:mod:`repro.workloads.mediabench` models the three MediaBench codecs of
the paper's evaluation (adpcm, g721, mpeg) at their published code
sizes; :mod:`repro.workloads.synthetic` generates seeded random programs
for property-based testing; :mod:`repro.workloads.registry` maps names
to workloads.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Call",
    "If",
    "Loop",
    "ProgramBuilder",
    "Seq",
    "Straight",
    "WhileProb",
    "available_workloads",
    "get_workload",
    "random_program",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.builder": (
        "Call",
        "If",
        "Loop",
        "ProgramBuilder",
        "Seq",
        "Straight",
        "WhileProb",
    ),
    "repro.workloads.registry": ("available_workloads", "get_workload"),
    "repro.workloads.synthetic": ("random_program",),
})
