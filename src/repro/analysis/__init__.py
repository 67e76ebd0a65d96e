"""Diagnostic analyses over linked images and profiling runs.

:mod:`repro.analysis.setpressure` explains *why* a program thrashes:
which cache sets are contended by which memory objects — the spatial
view behind the conflict graph's edges.
"""

from repro.analysis.setpressure import (
    SetPressure,
    cache_set_pressure,
    render_pressure_table,
)
from repro.analysis.wcet import (
    FetchLatency,
    WcetReport,
    block_worst_case_cycles,
    compute_wcet,
)

__all__ = [
    "SetPressure",
    "cache_set_pressure",
    "render_pressure_table",
    "FetchLatency",
    "WcetReport",
    "block_worst_case_cycles",
    "compute_wcet",
]
