"""Reproduction harnesses for the paper's evaluation (section 6).

One module per exhibit:

* :mod:`repro.evaluation.fig4` — figure 4: CASA vs. Steinke on MPEG
  (I-cache accesses, scratchpad accesses, I-cache misses, energy, as a
  percentage of Steinke = 100 %);
* :mod:`repro.evaluation.fig5` — figure 5: CASA scratchpad vs. Ross
  preloaded loop cache (loop cache = 100 %);
* :mod:`repro.evaluation.table1` — table 1: absolute energies and
  improvement percentages for adpcm, g721 and mpeg.

:mod:`repro.evaluation.sweep` provides the generic size sweep all three
build on, and :mod:`repro.evaluation.reporting` the text rendering.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DesignPoint",
    "explore",
    "render_design_points",
    "ObjectExplanation",
    "explain_allocation",
    "render_explanation",
    "generate_report",
    "Fig4Result",
    "Fig4Row",
    "run_fig4",
    "Fig5Result",
    "Fig5Row",
    "run_fig5",
    "SweepPoint",
    "make_workbench",
    "run_sweep",
    "Table1Benchmark",
    "Table1Result",
    "Table1Row",
    "run_table1",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.evaluation.dse": (
        "DesignPoint",
        "explore",
        "render_design_points",
    ),
    "repro.evaluation.explain": (
        "ObjectExplanation",
        "explain_allocation",
        "render_explanation",
    ),
    "repro.evaluation.fig4": ("Fig4Result", "Fig4Row", "run_fig4"),
    "repro.evaluation.reportgen": ("generate_report",),
    "repro.evaluation.fig5": ("Fig5Result", "Fig5Row", "run_fig5"),
    "repro.evaluation.sweep": ("SweepPoint", "make_workbench", "run_sweep"),
    "repro.evaluation.table1": (
        "Table1Benchmark",
        "Table1Result",
        "Table1Row",
        "run_table1",
    ),
})
