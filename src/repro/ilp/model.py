"""Optimisation model: variables, constraints, objective, solving."""

from __future__ import annotations

import ctypes
import enum
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from repro.errors import SolverError
from repro.ilp.expr import LinExpr, Variable
from repro.obs import metrics
from repro.obs.trace import span
from repro.resilience.faults import maybe_inject

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


#: scipy ``milp`` status codes with a direct :class:`SolveStatus`;
#: code 4 ("other") covers HiGHS's node limit and genuine failures.
_STATUS_BY_CODE = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}

# HiGHS (scipy 1.17) printf()s a debug line from its MIP solver straight
# to C stdout on some models, which ``disp=False`` does not suppress.
# Solves therefore run with fd 1 pointed at /dev/null; the lock keeps
# concurrent solves from restoring each other's descriptors.
_STDOUT_LOCK = threading.Lock()

try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.fflush.argtypes = [ctypes.c_void_p]
    _LIBC.fflush.restype = ctypes.c_int
except (OSError, TypeError, AttributeError):  # no C runtime to flush
    _LIBC = None


def _milp_quietly(cost: np.ndarray, **kwargs):
    """Run :func:`scipy.optimize.milp` with C-level stdout discarded."""
    # Import before taking the lock: no import runs while fd 1 points
    # at /dev/null.
    from scipy.optimize import milp

    with _STDOUT_LOCK:
        if sys.stdout is not None:
            sys.stdout.flush()
        try:
            saved = os.dup(1)
        except OSError:  # no fd 1 to protect
            return milp(cost, **kwargs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, 1)
            try:
                return milp(cost, **kwargs)
            finally:
                # Drain C stdio's buffer while it still reaches
                # /dev/null, then put the real stdout back.
                if _LIBC is not None:
                    _LIBC.fflush(None)
                os.dup2(saved, 1)
        finally:
            os.close(devnull)
            os.close(saved)


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
        """Solve the model exactly with HiGHS (:func:`scipy.optimize.milp`).

        A model without integer variables is solved as a pure LP.  The
        relative MIP gap is 0, so an ``OPTIMAL`` result is proven
        optimal, not merely within HiGHS's default 1e-4.

        Args:
            max_nodes: branch & bound node budget (``None`` =
                unlimited).  ``<= 0`` returns ``NODE_LIMIT`` without
                solving: HiGHS itself would still solve the root.
            max_seconds: wall-clock budget (``None`` = unlimited;
                negative values count as 0).

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
        # scipy costs ~0.4 s to import, so only solving pays for it.
        from scipy.optimize import Bounds, LinearConstraint
        from scipy.sparse import csr_matrix

        index = {var: i for i, var in enumerate(self.variables)}
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        cost = np.zeros(len(self.variables))
        for var, coef in self.objective.terms.items():
            cost[index[var]] += sign * coef

        rows, cols, data = [], [], []
        lower = np.full(len(self.constraints), -np.inf)
        upper = np.full(len(self.constraints), np.inf)
        for row, constraint in enumerate(self.constraints):
            for var, coef in constraint.expr.terms.items():
                rows.append(row)
                cols.append(index[var])
                data.append(coef)
            rhs = -constraint.expr.constant
            if constraint.sense in ("<=", "=="):
                upper[row] = rhs
            if constraint.sense in (">=", "=="):
                lower[row] = rhs
        constraints = None
        if self.constraints:
            matrix = csr_matrix(
                (data, (rows, cols)),
                shape=(len(self.constraints), len(self.variables)),
            )
            constraints = LinearConstraint(matrix, lower, upper)

        options: dict = {"disp": False, "mip_rel_gap": 0.0}
        if max_nodes is not None:
            options["node_limit"] = max_nodes
        if max_seconds is not None:
            options["time_limit"] = max(0.0, max_seconds)
        kwargs = dict(
            integrality=[int(var.is_integer) for var in self.variables],
            bounds=Bounds([var.lower for var in self.variables],
                          [var.upper for var in self.variables]),
            constraints=constraints,
        )
        outcome = _milp_quietly(cost, options=options, **kwargs)
        if outcome.status == 4 and "infeasible or unbounded" in \
                outcome.message:
            # Presolve could not tell which; the full solve can.
            options["presolve"] = False
            outcome = _milp_quietly(cost, options=options, **kwargs)

        status = _STATUS_BY_CODE.get(outcome.status)
        if status is None:
            if "Solution limit" not in outcome.message:
                raise SolverError(f"HiGHS failed: {outcome.message}")
            status = SolveStatus.NODE_LIMIT
        nodes = int(outcome.mip_node_count or 0)
        if outcome.x is None or status is SolveStatus.UNBOUNDED:
            return SolveResult(status, None, {}, nodes_explored=nodes)
        values = {
            var: (round(value) if var.is_integer else float(value))
            for var, value in zip(self.variables, outcome.x)
        }
        objective = self.objective.evaluate(values)
        if outcome.mip_dual_bound is None:
            # Pure LP: the optimum is its own bound.
            best_bound, gap = objective, 0.0
        else:
            best_bound = (sign * outcome.mip_dual_bound
                          + self.objective.constant)
            gap = outcome.mip_gap
        return SolveResult(status, objective, values,
                           nodes_explored=nodes, best_bound=best_bound,
                           gap=gap)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, {self.sense.value}, "
            f"{self.num_variables} vars, {self.num_constraints} cons)"
        )
