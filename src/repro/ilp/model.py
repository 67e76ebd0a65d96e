"""Optimisation model: variables, constraints, objective, solving."""

from __future__ import annotations

import ctypes
import enum
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

from repro.errors import SolverError
from repro.ilp.expr import LinExpr, Variable
from repro.obs import metrics
from repro.obs.trace import span
from repro.resilience.faults import maybe_inject

if TYPE_CHECKING:
    import numpy as np

Number = Union[int, float]


class Sense(enum.Enum):
    """Objective direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolveStatus(enum.Enum):
    """Outcome of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    ERROR = "error"


# HiGHS printf()s a debug line from its MIP solver straight to C stdout
# on some models, which ``log_to_console=False`` does not suppress.
# Solves therefore run with fd 1 pointed at /dev/null; the lock keeps
# concurrent solves from restoring each other's descriptors.
_STDOUT_LOCK = threading.Lock()

try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.fflush.argtypes = [ctypes.c_void_p]
    _LIBC.fflush.restype = ctypes.c_int
except (OSError, TypeError, AttributeError):  # no C runtime to flush
    _LIBC = None


def _run_quietly(highs):
    """Run ``highs.run()`` with C-level stdout discarded; return its
    ``HighsStatus``."""
    with _STDOUT_LOCK:
        if sys.stdout is not None:
            sys.stdout.flush()
        try:
            saved = os.dup(1)
        except OSError:  # no fd 1 to protect
            return highs.run()
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, 1)
            try:
                return highs.run()
            finally:
                # Drain C stdio's buffer while it still reaches
                # /dev/null, then put the real stdout back.
                if _LIBC is not None:
                    _LIBC.fflush(None)
                os.dup2(saved, 1)
        finally:
            os.close(devnull)
            os.close(saved)


#: ``HighsModelStatus`` names with a :class:`SolveStatus`; any other
#: status (a HiGHS error, an interrupt, ...) raises.
_STATUS_BY_HIGHS = {
    "kOptimal": SolveStatus.OPTIMAL,
    "kTimeLimit": SolveStatus.TIME_LIMIT,
    "kIterationLimit": SolveStatus.TIME_LIMIT,
    "kInfeasible": SolveStatus.INFEASIBLE,
    "kUnbounded": SolveStatus.UNBOUNDED,
    "kSolutionLimit": SolveStatus.NODE_LIMIT,
}


#: The option that turns HiGHS's feasibility-jump heuristic off (see
#: :meth:`Model.solve`).  An older HiGHS build may not know it; such a
#: build has no feasibility jump, so a solve goes on without it.
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def _run(core, lp, options: dict):
    """A fresh HiGHS instance that has solved *lp* under *options*.

    A solve that fails (``Solve error`` and the like) still returns
    the instance: its model status then has no :class:`SolveStatus`,
    and the caller retries or raises.
    """
    highs = core._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == core.HighsStatus.kError \
                and name != _FEASIBILITY_JUMP:
            raise SolverError(f"HiGHS rejected option {name}={value!r}")
    if highs.passModel(lp) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    _run_quietly(highs)
    return highs


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalised form."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in ("<=", ">=", "=="):
            raise SolverError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    @staticmethod
    def build(left: LinExpr, sense: str,
              right: Union[LinExpr, Variable, Number]) -> "Constraint":
        """Build ``left sense right`` as ``(left - right) sense 0``."""
        return Constraint(left - right, sense)

    def named(self, name: str) -> "Constraint":
        """Return the same constraint carrying a display name."""
        return Constraint(self.expr, self.sense, name)

    def satisfied_by(self, assignment: Mapping[Variable, float],
                     tolerance: float = 1e-6) -> bool:
        """Whether an assignment satisfies the constraint."""
        value = self.expr.evaluate(assignment)
        if self.sense == "<=":
            return value <= tolerance
        if self.sense == ">=":
            return value >= -tolerance
        return abs(value) <= tolerance

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return f"{label}{self.expr!r} {self.sense} 0"


@dataclass
class SolveResult:
    """Solution of a model.

    Attributes:
        status: solver outcome.
        objective: objective value at :attr:`values` (``None`` unless a
            solution exists).
        values: assignment of every model variable (integer variables
            rounded to exact ints).
        nodes_explored: branch & bound nodes HiGHS processed (0 for
            pure LPs and for solves stopped before the root).
        best_bound: proven dual bound in the model's sense (equals the
            objective for proven-optimal solves).
        gap: HiGHS's relative optimality gap (``None`` when unknown).
    """

    status: SolveStatus
    objective: float | None
    values: dict[Variable, float]
    nodes_explored: int = 0
    best_bound: float | None = None
    gap: float | None = None

    @property
    def is_optimal(self) -> bool:
        """Whether a proven-optimal solution was found."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, variable: Variable) -> float:
        """Value of one variable in the solution."""
        if not self.values:
            raise SolverError(f"no solution available ({self.status.value})")
        return self.values[variable]

    def binary_value(self, variable: Variable) -> int:
        """Value of a 0/1 variable, rounded to an exact int."""
        value = self.value(variable)
        rounded = round(value)
        if abs(value - rounded) > 1e-4 or rounded not in (0, 1):
            raise SolverError(
                f"variable {variable.name!r} is not binary-valued: {value}"
            )
        return int(rounded)


class Model:
    """An ILP/LP model.

    Example::

        model = Model("demo", Sense.MINIMIZE)
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y >= 1, "cover")
        model.set_objective(3 * x + 2 * y)
        result = model.solve()
    """

    def __init__(self, name: str = "model",
                 sense: Sense = Sense.MINIMIZE) -> None:
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self._names: set[str] = set()

    # -- construction ------------------------------------------------------

    def add_variable(self, name: str, lower: float = 0.0,
                     upper: float = float("inf"),
                     is_integer: bool = False) -> Variable:
        """Create and register a variable."""
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        variable = Variable(name, lower, upper, is_integer)
        self.variables.append(variable)
        self._names.add(name)
        return variable

    def add_binary(self, name: str) -> Variable:
        """Create a 0/1 variable."""
        return self.add_variable(name, 0.0, 1.0, is_integer=True)

    def add_constraint(self, constraint: Constraint,
                       name: str = "") -> Constraint:
        """Register a constraint (optionally naming it)."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects a Constraint (build one with "
                "<=, >= or == on expressions)"
            )
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expression: LinExpr | Variable | float) -> None:
        """Set the objective expression."""
        if isinstance(expression, Variable):
            expression = expression + 0.0
        elif isinstance(expression, (int, float)):
            expression = LinExpr(constant=float(expression))
        self.objective = expression

    # -- queries ------------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Registered variables."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Registered constraints."""
        return len(self.constraints)

    @property
    def integer_variables(self) -> list[Variable]:
        """Variables with an integrality requirement."""
        return [v for v in self.variables if v.is_integer]

    def is_feasible(self, assignment: Mapping[Variable, float],
                    tolerance: float = 1e-6) -> bool:
        """Whether an assignment satisfies all constraints and bounds."""
        for variable in self.variables:
            value = assignment[variable]
            if value < variable.lower - tolerance:
                return False
            if value > variable.upper + tolerance:
                return False
            if variable.is_integer and \
                    abs(value - round(value)) > tolerance:
                return False
        return all(
            constraint.satisfied_by(assignment, tolerance)
            for constraint in self.constraints
        )

    # -- solving ------------------------------------------------------------

    def solve(self, max_nodes: int | None = None,
              max_seconds: float | None = None) -> SolveResult:
        """Solve the model exactly with HiGHS.

        HiGHS is the copy bundled with scipy, driven through its own
        binding (:mod:`repro.ilp._highs`), so a solve loads no
        :mod:`scipy.optimize`.  A model without integer variables is
        solved as a pure LP.  The relative MIP gap is 0, so an
        ``OPTIMAL`` result is proven optimal, not merely within HiGHS's
        default 1e-4.  On a 0/1 model, one whose every variable lies in
        [0, 1] as in every CASA-family model, HiGHS's feasibility-jump
        heuristic is off (``mip_heuristic_run_feasibility_jump=False``;
        a HiGHS build without that option solves as it is): it only
        seeks a first feasible point, and every CASA-family model has
        one that HiGHS finds at once (every object cached).  It changes
        no optimum and no node count of those models.  Other models
        keep the jump: without it, HiGHS can end a general-integer
        model on another point, one that meets its rows only within
        HiGHS's feasibility tolerance.  A model without variables never
        reaches HiGHS: it is ``OPTIMAL`` at its constant objective when
        its constant-only constraints hold, and ``INFEASIBLE``
        otherwise.
        When HiGHS can only say "unbounded or infeasible", or stops
        with "Solve error", the model is solved again without presolve.
        When that still says "unbounded or infeasible", a solve under a
        zero objective decides: ``UNBOUNDED`` if it finds a point,
        ``INFEASIBLE`` if it proves there is none.  On a model that is
        not 0/1, a MIP point that :meth:`is_feasible` rejects has its
        continuous values re-solved with the integers fixed (see
        :meth:`_resolve_continuous`).

        Args:
            max_nodes: branch & bound node budget (``None`` =
                unlimited).  ``<= 0`` returns ``NODE_LIMIT`` without
                solving: HiGHS itself would still solve the root.
            max_seconds: wall-clock budget (``None`` = unlimited;
                negative values count as 0).

        Raises:
            SolverError: an objective, constraint or bound coefficient
                is not finite (a NaN anywhere, or an infinite
                coefficient other than an open variable bound), or
                HiGHS fails.

        Emits an ``ilp.solve`` span (status, nodes, objective, bound,
        gap) plus the ``ilp.solves`` / ``ilp.nodes`` counters and the
        ``ilp.solve.seconds`` histogram when observability is enabled.
        """
        with span("ilp.solve", variables=len(self.variables),
                  constraints=len(self.constraints)) as solve_span:
            maybe_inject("ilp.solve", variables=len(self.variables))
            started = time.perf_counter()
            if max_nodes is not None and max_nodes <= 0:
                result = SolveResult(SolveStatus.NODE_LIMIT, None, {})
            else:
                result = self._solve_highs(max_nodes, max_seconds)
            metrics.observe("ilp.solve.seconds",
                            time.perf_counter() - started)
            solve_span.add(status=result.status.name,
                           nodes=result.nodes_explored,
                           objective=result.objective,
                           best_bound=result.best_bound,
                           gap=result.gap)
            metrics.inc("ilp.solves")
            metrics.inc("ilp.nodes", result.nodes_explored)
            return result

    def _solve_highs(self, max_nodes: int | None,
                     max_seconds: float | None) -> SolveResult:
        # numpy loads with the first solve, not with the model: an
        # exhibit served from the store builds no matrix.
        import numpy as np

        num_cols, num_rows = len(self.variables), len(self.constraints)
        index = {var: i for i, var in enumerate(self.variables)}
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        cost = np.zeros(num_cols)
        for var, coef in self.objective.terms.items():
            cost[index[var]] += sign * coef

        rows, cols, data = [], [], []
        lower = np.full(num_rows, -np.inf)
        upper = np.full(num_rows, np.inf)
        rhs = np.empty(num_rows)
        for row, constraint in enumerate(self.constraints):
            for var, coef in constraint.expr.terms.items():
                rows.append(row)
                cols.append(index[var])
                data.append(coef)
            rhs[row] = -constraint.expr.constant
            if constraint.sense in ("<=", "=="):
                upper[row] = rhs[row]
            if constraint.sense in (">=", "=="):
                lower[row] = rhs[row]
        rows = np.array(rows, dtype=np.int32)
        cols = np.array(cols, dtype=np.int32)
        data = np.array(data, dtype=np.float64)
        col_lower = np.array([var.lower for var in self.variables])
        col_upper = np.array([var.upper for var in self.variables])
        self._check_finite(cost, rows, data, rhs, col_lower, col_upper)

        if not self.variables:
            if not all(c.satisfied_by({}) for c in self.constraints):
                return SolveResult(SolveStatus.INFEASIBLE, None, {})
            objective = self.objective.evaluate({})
            return SolveResult(SolveStatus.OPTIMAL, objective, {},
                               best_bound=objective, gap=0.0)

        from repro.ilp._highs import core  # loads the binding once

        # Column-wise, rows ascending within each column: the order
        # scipy's sparse CSC conversion handed HiGHS.  Explicit zero
        # coefficients stay in the matrix.
        order = np.lexsort((rows, cols))
        lp = core.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.col_cost_ = cost
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = lower
        lp.row_upper_ = upper
        matrix = lp.a_matrix_
        matrix.num_col_ = num_cols
        matrix.num_row_ = num_rows
        matrix.format_ = core.MatrixFormat.kColwise
        matrix.start_ = np.concatenate((
            [0], np.cumsum(np.bincount(cols, minlength=num_cols)),
        ))
        matrix.index_ = rows[order]
        matrix.value_ = data[order]
        lp.integrality_ = [
            core.HighsVarType.kInteger if var.is_integer
            else core.HighsVarType.kContinuous
            for var in self.variables
        ]

        options: dict = {"log_to_console": False, "mip_rel_gap": 0.0}
        zero_one = col_lower.min() >= 0.0 and col_upper.max() <= 1.0
        if zero_one:
            options[_FEASIBILITY_JUMP] = False
        if max_nodes is not None:
            options["mip_max_nodes"] = int(max_nodes)
        if max_seconds is not None:
            options["time_limit"] = max(0.0, float(max_seconds))
        highs = _run(core, lp, options)
        if highs.getModelStatus() in (
                core.HighsModelStatus.kUnboundedOrInfeasible,
                core.HighsModelStatus.kSolveError):
            # Presolve could not tell which, or failed outright (as
            # HiGHS 1.12 does on a few small general-integer models);
            # the full solve can.
            highs = _run(core, lp, {**options, "presolve": "off"})
        if highs.getModelStatus() == \
                core.HighsModelStatus.kUnboundedOrInfeasible:
            return self._unbounded_or_infeasible(core, lp, options)

        model_status = highs.getModelStatus()
        status = _STATUS_BY_HIGHS.get(model_status.name)
        if status is None:
            raise SolverError(
                f"HiGHS failed: {highs.modelStatusToString(model_status)}"
            )
        info = highs.getInfo()
        is_mip = any(var.is_integer for var in self.variables)
        nodes = max(0, int(info.mip_node_count)) if is_mip else 0
        # A stopped MIP may still hold an incumbent; an LP has a
        # solution only at its optimum.
        has_solution = status is SolveStatus.OPTIMAL or (
            is_mip and status in (SolveStatus.TIME_LIMIT,
                                  SolveStatus.NODE_LIMIT)
            and info.objective_function_value != core.kHighsInf
        )
        if not has_solution:
            return SolveResult(status, None, {}, nodes_explored=nodes)
        values = {
            var: (round(value) if var.is_integer else float(value))
            for var, value in zip(self.variables,
                                  highs.getSolution().col_value)
        }
        if is_mip and not zero_one and not self.is_feasible(values):
            values = self._resolve_continuous(core, lp, values, options)
        objective = self.objective.evaluate(values)
        if is_mip:
            best_bound = (sign * info.mip_dual_bound
                          + self.objective.constant)
            gap = info.mip_gap
        else:
            # Pure LP: the optimum is its own bound.
            best_bound, gap = objective, 0.0
        return SolveResult(status, objective, values,
                           nodes_explored=nodes, best_bound=best_bound,
                           gap=gap)

    def _resolve_continuous(self, core, lp, values: dict,
                            options: dict) -> dict:
        """*values* with the continuous ones re-solved as an LP.

        HiGHS accepts a MIP point whose rows hold within its own MIP
        feasibility tolerance, about 1e-6, and does not polish it, so
        a row can end just outside :meth:`is_feasible`'s 1e-6.  Only
        such a point comes here.  Fixing every integer at its rounded
        value and solving the LP that is left gives a vertex that
        meets the rows to rounding error.  If that LP is not optimal
        (the integers fit only within the tolerance), *values* stay as
        they are.  0/1 models (every CASA-family model) never come
        here, so their points are HiGHS's own.
        """
        import numpy as np

        lp.col_lower_ = np.array([values[var] if var.is_integer
                                  else var.lower for var in self.variables])
        lp.col_upper_ = np.array([values[var] if var.is_integer
                                  else var.upper for var in self.variables])
        lp.integrality_ = [core.HighsVarType.kContinuous] * len(values)
        highs = _run(core, lp, {name: options[name] for name in
                                ("log_to_console", "time_limit")
                                if name in options})
        if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
            return values
        return {
            var: values[var] if var.is_integer else float(value)
            for var, value in zip(self.variables,
                                  highs.getSolution().col_value)
        }

    def _unbounded_or_infeasible(self, core, lp,
                                 options: dict) -> SolveResult:
        """Tell an unbounded model from an infeasible one.

        Even without presolve, HiGHS can stop a MIP whose relaxation is
        unbounded at "unbounded or infeasible".  Such a model is
        unbounded iff it has a feasible point at all, which one solve
        under a zero objective finds or refutes.  A budget that stops
        that solve first keeps its own status (no point was found).
        """
        import numpy as np

        lp.col_cost_ = np.zeros(len(self.variables))
        highs = _run(core, lp, options)
        model_status = highs.getModelStatus()
        status = _STATUS_BY_HIGHS.get(model_status.name)
        if status is None:
            raise SolverError(
                f"HiGHS failed: {highs.modelStatusToString(model_status)}"
            )
        if status is SolveStatus.OPTIMAL:
            status = SolveStatus.UNBOUNDED
        nodes = max(0, int(highs.getInfo().mip_node_count))
        return SolveResult(status, None, {}, nodes_explored=nodes)

    def _check_finite(self, cost: np.ndarray, rows: np.ndarray,
                      data: np.ndarray, rhs: np.ndarray,
                      col_lower: np.ndarray,
                      col_upper: np.ndarray) -> None:
        """Raise :class:`SolverError` naming the first coefficient
        HiGHS cannot take: any NaN, and any infinity except an open
        variable bound (``-inf`` lower, ``+inf`` upper)."""
        import numpy as np

        names = [var.name for var in self.variables]
        checks = (
            (cost, lambda i: f"the objective coefficient of {names[i]!r}"),
            ([self.objective.constant], lambda i: "the objective's constant"),
            (data, lambda i: f"a coefficient of {self._row_label(rows[i])}"),
            (rhs, lambda i: f"the constant of {self._row_label(i)}"),
            (np.where(col_lower == -np.inf, 0.0, col_lower),
             lambda i: f"the lower bound of {names[i]!r}"),
            (np.where(col_upper == np.inf, 0.0, col_upper),
             lambda i: f"the upper bound of {names[i]!r}"),
        )
        for values, where in checks:
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise SolverError(f"model {self.name!r}: "
                                  f"{where(int(bad[0]))} is not finite")

    def _row_label(self, row: int) -> str:
        name = self.constraints[row].name
        return f"constraint {name!r}" if name else f"constraint #{row}"

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, {self.sense.value}, "
            f"{self.num_variables} vars, {self.num_constraints} cons)"
        )
