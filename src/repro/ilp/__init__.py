"""A small integer-linear-programming toolkit.

The paper solves its allocation problem with a commercial ILP solver
(CPLEX [5]).  The reproduction models the same ILPs here and solves
them exactly with HiGHS's MIP solver, the copy bundled with scipy,
driven through HiGHS's own binding (:mod:`repro.ilp._highs` loads it
without :mod:`scipy.optimize`):

* :mod:`repro.ilp.expr` / :mod:`repro.ilp.model` — a PuLP-like modelling
  layer (variables, linear expressions, constraints, a model) whose
  :meth:`~repro.ilp.model.Model.solve` hands the model to HiGHS as one
  column-wise sparse constraint matrix;
* :mod:`repro.ilp.knapsack` — an exact dynamic-programming 0/1 knapsack
  used by the Steinke baseline.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LinExpr",
    "Variable",
    "Constraint",
    "Model",
    "Sense",
    "SolveResult",
    "SolveStatus",
    "knapsack_01",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ilp.expr": ("LinExpr", "Variable"),
    "repro.ilp.model": (
        "Constraint",
        "Model",
        "Sense",
        "SolveResult",
        "SolveStatus",
    ),
    "repro.ilp.knapsack": ("knapsack_01",),
})
