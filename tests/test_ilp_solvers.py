"""Tests for Model.solve on HiGHS, including brute-force cross-checks
on random instances and a differential check of the direct HiGHS
binding against :func:`scipy.optimize.milp` on the same models."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

import repro.ilp.model as ilp_model
from repro.core.casa import CasaAllocator
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore
from repro.errors import SolverError
from repro.evaluation.fig4 import DEFAULT_SIZES as FIG4_SIZES
from repro.ilp.expr import LinExpr
from repro.ilp.model import Constraint, Model, Sense, SolveResult, \
    SolveStatus
from repro.workloads.registry import get_workload


class TestLpRelaxation:
    """Models without integer variables solve as pure LPs."""

    def test_equality_constraints(self):
        model = Model()
        x = model.add_variable("x", 0, 10)
        y = model.add_variable("y", 0, 10)
        model.add_constraint(x + y == 7)
        model.set_objective(x)
        solution = model.solve()
        assert solution.values[x] == pytest.approx(0.0)
        assert solution.values[y] == pytest.approx(7.0)

    def test_maximize_objective_sign(self):
        model = Model("m", Sense.MAXIMIZE)
        x = model.add_variable("x", 0, 3)
        model.set_objective(2 * x + 1)
        solution = model.solve()
        assert solution.objective == pytest.approx(7.0)

    def test_ipet_flow_lp_hand_computed(self):
        # The WCET analyser's shape: entry (5 cycles) runs once, feeds a
        # loop (7 cycles) whose back edge is taken at most 9 times per
        # entry, then an exit block (3 cycles).  Worst case:
        # 5 + 10 * 7 + 3 = 78.
        model = Model("ipet", Sense.MAXIMIZE)
        entry = model.add_variable("entry")
        enter_loop = model.add_variable("entry->loop")
        back = model.add_variable("loop->loop")
        leave_loop = model.add_variable("loop->exit")
        loop = model.add_variable("loop")
        exit_ = model.add_variable("exit")
        model.add_constraint(entry == 1)
        model.add_constraint(enter_loop - entry == 0)
        model.add_constraint(loop - enter_loop - back == 0)
        model.add_constraint(loop - back - leave_loop == 0)
        model.add_constraint(exit_ - leave_loop == 0)
        model.add_constraint(back - 9 * enter_loop <= 0)
        model.set_objective(5 * entry + 7 * loop + 3 * exit_)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(78.0)
        assert result.values[loop] == pytest.approx(10.0)


def brute_force_best(sizes, profits, capacity, sense, count):
    """Exhaustive optimum (``None`` when no selection is feasible)."""
    best = None
    pick = max if sense is Sense.MAXIMIZE else min
    for mask in itertools.product((0, 1), repeat=len(sizes)):
        if sum(s for s, take in zip(sizes, mask) if take) > capacity:
            continue
        if count is not None and sum(mask) != count:
            continue
        value = sum(p for p, take in zip(profits, mask) if take)
        best = value if best is None else pick(best, value)
    return best


class TestBranchAndBound:
    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.integers(0, 30)),
            min_size=1, max_size=10,
        ),
        st.integers(0, 60),
        st.sampled_from([Sense.MAXIMIZE, Sense.MINIMIZE]),
        st.one_of(st.none(), st.integers(0, 4)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_knapsack(self, items, capacity, sense,
                                          count):
        sizes = [size for size, _ in items]
        profits = [profit for _, profit in items]
        model = Model("knap", sense)
        variables = [model.add_binary(f"x{i}") for i in range(len(items))]
        weight = sum(
            (s * v for s, v in zip(sizes, variables)),
            start=0 * variables[0],
        )
        model.add_constraint(weight <= capacity)
        if count is not None:
            # An == row: exactly `count` items.
            model.add_constraint(
                sum(variables, start=0 * variables[0]) == count
            )
        model.set_objective(sum(
            (p * v for p, v in zip(profits, variables)),
            start=0 * variables[0],
        ))
        result = model.solve()
        expected = brute_force_best(sizes, profits, capacity, sense,
                                    count)
        if expected is None:
            assert result.status is SolveStatus.INFEASIBLE
            return
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(expected)
        assert model.is_feasible(result.values)

    def test_integer_non_binary_variables(self):
        model = Model("int", Sense.MAXIMIZE)
        x = model.add_variable("x", 0, 10, is_integer=True)
        model.add_constraint(3 * x <= 10)
        model.set_objective(x)
        result = model.solve()
        assert result.objective == pytest.approx(3.0)
        assert result.value(x) == 3

    def test_node_limit_returns_incumbent(self):
        model = Model("hard", Sense.MAXIMIZE)
        variables = [model.add_binary(f"x{i}") for i in range(12)]
        model.add_constraint(
            sum((3 * v for v in variables), start=0 * variables[0]) <= 17
        )
        model.set_objective(
            sum(((i % 5 + 1) * v for i, v in enumerate(variables)),
                start=0 * variables[0])
        )
        result = model.solve(max_nodes=1)
        assert result.status in (SolveStatus.OPTIMAL,
                                 SolveStatus.NODE_LIMIT)
        if result.status is SolveStatus.NODE_LIMIT:
            assert result.objective is not None  # HiGHS's incumbent

    def test_minimization(self):
        model = Model("min", Sense.MINIMIZE)
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y >= 1)
        model.set_objective(3 * x + 2 * y)
        result = model.solve()
        assert result.objective == pytest.approx(2.0)
        assert result.binary_value(y) == 1

    def test_nodes_counted(self):
        # Large enough that HiGHS's presolve cannot finish it, so the
        # search reaches the root node.
        model = Model("m", Sense.MAXIMIZE)
        variables = [model.add_binary(f"x{i}") for i in range(4)]
        model.add_constraint(sum(
            ((i + 2) * v for i, v in enumerate(variables)),
            start=0 * variables[0],
        ) <= 7)
        model.set_objective(sum(
            ((i + 1) * v for i, v in enumerate(variables)),
            start=0 * variables[0],
        ))
        result = model.solve()
        assert result.nodes_explored >= 1


@pytest.fixture(scope="module")
def mpeg_casa_128():
    """CASA's mpeg (seed 1) model at 128 B and its location variables.

    The model has two optima of equal predicted energy (one keeps trace
    T5 in the scratchpad, the other T7), and HiGHS's MIP solver prints
    a debug line to C stdout while solving it.
    """
    runner = StageRunner(store=ArtifactStore())
    _, bench = make_workbench("mpeg", 1.0, 1, runner=runner)
    return CasaAllocator().build_model(
        bench.conflict_graph, 128, bench.spm_energy_model(128)
    )


class TestHighsOnCasaModels:
    def test_solve_writes_nothing_to_stdout(self, mpeg_casa_128, capfd):
        model, _ = mpeg_casa_128
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        out, _ = capfd.readouterr()
        assert out == ""

    def test_raw_highs_call_does_print(self, mpeg_casa_128, monkeypatch,
                                       capfd):
        # Guards the test above: without the fd-1 redirection the same
        # solve does reach stdout, so an empty capture proves the fix.
        model, _ = mpeg_casa_128
        monkeypatch.setattr(ilp_model, "_run_quietly",
                            lambda highs: highs.run())
        model.solve()
        ilp_model._LIBC.fflush(None)
        out, _ = capfd.readouterr()
        assert "tmpSolver.run()" in out

    def test_tied_optimum_is_deterministic(self, mpeg_casa_128):
        model, location = mpeg_casa_128
        first = model.solve()
        resident = {name for name, var in location.items()
                    if first.binary_value(var) == 0}
        assert {"T5", "T7"} & resident in ({"T5"}, {"T7"})
        # The other tied set evaluates to the same objective ...
        other = dict(first.values)
        for name in ("T5", "T7"):
            other[location[name]] = 1 - first.values[location[name]]
        for var in model.variables:
            if var.name.startswith("L["):
                victim, evictor = var.name[2:-1].split(",")
                other[var] = (other[location[victim]]
                              * other[location[evictor]])
        assert model.is_feasible(other)
        assert model.objective.evaluate(other) == \
            pytest.approx(first.objective, abs=1e-6)
        # ... yet every solve returns the same one.
        for _ in range(3):
            again = model.solve()
            assert again.values == first.values
            assert again.objective == first.objective


#: The HiGHS option every ``Model.solve`` turns off.
FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def solve_with_feasibility_jump(model):
    """*model* solved with HiGHS's default primal heuristics, the
    feasibility jump included: the oracle of the option ``Model.solve``
    sets.  Returns the result and the jump setting HiGHS ran with."""
    ran_with = []
    real_run = ilp_model._run

    def default_run(core, lp, options):
        options = {name: value for name, value in options.items()
                   if name != FEASIBILITY_JUMP}
        highs = real_run(core, lp, options)
        ran_with.append(highs.getOptionValue(FEASIBILITY_JUMP)[1])
        return highs

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp_model, "_run", default_run)
        result = model.solve()
    return result, ran_with


def solver_models(workload, seed):
    """CASA models of the Table 1 sizes and of the ``fig4`` sizes,
    with their location variables."""
    runner = StageRunner(store=ArtifactStore())
    _, bench = make_workbench(workload, 1.0, seed, runner=runner)
    sizes = sorted(set(get_workload(workload).spm_sizes)
                   | set(FIG4_SIZES))
    for size in sizes:
        model, location = CasaAllocator().build_model(
            bench.conflict_graph, size, bench.spm_energy_model(size))
        yield size, model, location


class TestFeasibilityJumpOff:
    """Every CASA model has a feasible point HiGHS finds at once (all
    objects cached), so the feasibility-jump heuristic is turned off on
    0/1 models; that changes no optimum and no node count.  Models with
    a variable outside [0, 1] keep it."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workload", ["adpcm", "g721", "mpeg"])
    def test_same_optimum_as_default_heuristics(self, workload, seed):
        for size, model, location in solver_models(workload, seed):
            expected, ran_with = solve_with_feasibility_jump(model)
            assert ran_with == [True], size
            result = model.solve()
            assert result.status is expected.status \
                is SolveStatus.OPTIMAL, size
            assert {var: result.binary_value(var)
                    for var in model.integer_variables} == \
                {var: expected.binary_value(var)
                 for var in model.integer_variables}, size
            assert result.objective == pytest.approx(
                expected.objective, rel=1e-9), size
            assert result.nodes_explored == expected.nodes_explored, size

    @staticmethod
    def record_jump(monkeypatch):
        """The jump option each ``_run`` is passed and the value the
        HiGHS instance then holds, in call order."""
        seen = []
        real_run = ilp_model._run

        def recording_run(core, lp, options):
            highs = real_run(core, lp, options)
            seen.append((options.get(FEASIBILITY_JUMP),
                         highs.getOptionValue(FEASIBILITY_JUMP)[1]))
            return highs

        monkeypatch.setattr(ilp_model, "_run", recording_run)
        return seen

    def test_solve_passes_the_option_to_highs(self, monkeypatch):
        seen = self.record_jump(monkeypatch)
        model = Model()
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add_constraint(x + y >= 1)
        model.set_objective(3 * x + 2 * y)
        assert model.solve().objective == 2.0
        assert seen == [(False, False)]

    def test_casa_model_solves_without_the_jump(self, monkeypatch,
                                                 mpeg_casa_128):
        # Binary locations and continuous products in [0, 1].
        model, _ = mpeg_casa_128
        seen = self.record_jump(monkeypatch)
        assert model.solve().status is SolveStatus.OPTIMAL
        assert seen == [(False, False)]

    def test_general_model_keeps_the_jump(self, monkeypatch):
        # A variable outside [0, 1]: HiGHS solves with its defaults.
        seen = self.record_jump(monkeypatch)
        model = Model(sense=Sense.MAXIMIZE)
        x = model.add_binary("x")
        n = model.add_variable("n", 0.0, 4.0, is_integer=True)
        model.add_constraint(2 * n + 3 * x <= 7)
        model.set_objective(n + x)
        assert model.solve().objective == 3.0
        assert seen == [(None, True)]

    @staticmethod
    def highs_without(monkeypatch, rejected):
        """Make HiGHS instances reject the option *rejected*, as a
        build that does not know it would."""
        from repro.ilp._highs import core

        real_highs = core._Highs

        class StubHighs:
            def __init__(self):
                self._highs = real_highs()

            def setOptionValue(self, name, value):
                if name == rejected:
                    return core.HighsStatus.kError
                return self._highs.setOptionValue(name, value)

            def __getattr__(self, name):
                return getattr(self._highs, name)

        monkeypatch.setattr(core, "_Highs", StubHighs)

    def test_build_without_the_option_solves_without_it(
            self, monkeypatch, mpeg_casa_128):
        # Such a build runs the jump, so it must solve as the oracle.
        model, _ = mpeg_casa_128
        expected, _ = solve_with_feasibility_jump(model)
        self.highs_without(monkeypatch, FEASIBILITY_JUMP)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.values == expected.values
        assert result.nodes_explored == expected.nodes_explored

    def test_any_other_rejected_option_still_raises(self, monkeypatch,
                                                     mpeg_casa_128):
        model, _ = mpeg_casa_128
        self.highs_without(monkeypatch, "mip_rel_gap")
        with pytest.raises(SolverError,
                           match="HiGHS rejected option mip_rel_gap"):
            model.solve()


def milp_oracle(model, max_nodes=None, max_seconds=None):
    """*model* solved through :func:`scipy.optimize.milp`.

    The model goes to HiGHS as one CSR matrix with ``Bounds`` and a
    ``LinearConstraint``, and milp's integer status (plus its message,
    for the codes it folds into 4) maps back to a :class:`SolveResult`.
    Node counts are not compared: milp reports none for a MIP that
    stops without a solution.
    """
    index = {var: i for i, var in enumerate(model.variables)}
    sign = 1.0 if model.sense is Sense.MINIMIZE else -1.0
    cost = np.zeros(len(model.variables))
    for var, coef in model.objective.terms.items():
        cost[index[var]] += sign * coef
    rows, cols, data = [], [], []
    lower = np.full(len(model.constraints), -np.inf)
    upper = np.full(len(model.constraints), np.inf)
    for row, constraint in enumerate(model.constraints):
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
    if model.constraints:
        matrix = csr_matrix((data, (rows, cols)),
                            shape=(len(model.constraints),
                                   len(model.variables)))
        constraints = LinearConstraint(matrix, lower, upper)
    options = {"disp": False, "mip_rel_gap": 0.0}
    if max_nodes is not None:
        options["node_limit"] = max_nodes
    if max_seconds is not None:
        options["time_limit"] = max(0.0, max_seconds)
    kwargs = dict(
        integrality=[int(var.is_integer) for var in model.variables],
        bounds=Bounds([var.lower for var in model.variables],
                      [var.upper for var in model.variables]),
        constraints=constraints,
    )
    outcome = milp(cost, options=options, **kwargs)
    if outcome.status == 4 and "infeasible or unbounded" in \
            outcome.message:
        outcome = milp(cost, options={**options, "presolve": False},
                       **kwargs)
    status = {0: SolveStatus.OPTIMAL, 1: SolveStatus.TIME_LIMIT,
              2: SolveStatus.INFEASIBLE,
              3: SolveStatus.UNBOUNDED}.get(outcome.status)
    if status is None:
        if "Solution limit" not in outcome.message:
            raise SolverError(f"HiGHS failed: {outcome.message}")
        status = SolveStatus.NODE_LIMIT
    if outcome.x is None or status is SolveStatus.UNBOUNDED:
        return SolveResult(status, None, {})
    values = {var: (round(value) if var.is_integer else float(value))
              for var, value in zip(model.variables, outcome.x)}
    objective = model.objective.evaluate(values)
    if outcome.mip_dual_bound is None:
        best_bound, gap = objective, 0.0
    else:
        best_bound = sign * outcome.mip_dual_bound + \
            model.objective.constant
        gap = outcome.mip_gap
    return SolveResult(status, objective, values,
                       nodes_explored=int(outcome.mip_node_count or 0),
                       best_bound=best_bound, gap=gap)


def zero_objective_verdict(model):
    """``UNBOUNDED`` if the milp oracle finds *model* feasible under a
    zero objective, ``INFEASIBLE`` if it proves it infeasible."""
    objective = model.objective
    model.set_objective(0.0)
    try:
        status = milp_oracle(model).status
    finally:
        model.set_objective(objective)
    return {SolveStatus.OPTIMAL: SolveStatus.UNBOUNDED,
            SolveStatus.INFEASIBLE: SolveStatus.INFEASIBLE}[status]


def assert_same_solve(model, **limits):
    """The direct binding and the milp oracle agree on *model*."""
    expected = milp_oracle(model, **limits)
    result = model.solve(**limits)
    assert result.status is expected.status
    if expected.objective is None:
        assert result.objective is None and result.values == {}
        return result
    assert result.objective == pytest.approx(expected.objective,
                                             rel=1e-9, abs=1e-9)
    assert result.best_bound == pytest.approx(expected.best_bound,
                                              rel=1e-9, abs=1e-9)
    assert result.gap == pytest.approx(expected.gap, abs=1e-9)
    assert result.nodes_explored == expected.nodes_explored
    return result


#: Variable kinds of the random models: (lower, upper, integer).
VARIABLE_KINDS = st.sampled_from([
    (0.0, 1.0, True),
    (0.0, 4.0, True),
    (-3.0, 5.0, True),
    (0.0, math.inf, True),
    (0.0, 10.0, False),
    (-math.inf, 6.0, False),
    (-2.5, math.inf, False),
])


@st.composite
def random_models(draw):
    """Small LP/MILP models: mixed senses, equality rows, integer
    non-binary variables, explicit zero coefficients, and sometimes no
    constraints at all."""
    model = Model("random", draw(st.sampled_from(list(Sense))))
    kinds = draw(st.lists(VARIABLE_KINDS, min_size=1, max_size=5))
    variables = [model.add_variable(f"x{i}", lower, upper, integer)
                 for i, (lower, upper, integer) in enumerate(kinds)]
    coefficient = st.integers(-5, 5).map(float)
    for _ in range(draw(st.integers(0, 4))):
        picked = draw(st.lists(st.sampled_from(variables), min_size=1,
                               max_size=len(variables), unique=True))
        terms = {var: draw(coefficient) for var in picked}
        rhs = draw(st.integers(-10, 10))
        model.add_constraint(Constraint(
            LinExpr(terms, -rhs), draw(st.sampled_from(["<=", ">=", "=="]))
        ))
    model.set_objective(LinExpr(
        {var: draw(coefficient) for var in variables},
        draw(st.integers(-3, 3)),
    ))
    return model


def market_split(seed, rows, columns, equal):
    """A random 0/1 multi-knapsack: each row's weights total at most
    (or, with *equal*, exactly) half their sum.  The equality form is
    the market-split family, hard for branch & bound."""
    rng = random.Random(seed)
    sense = Sense.MINIMIZE if equal else Sense.MAXIMIZE
    model = Model("split" if equal else "knapsack", sense)
    variables = [model.add_binary(f"x{j}") for j in range(columns)]
    for _ in range(rows):
        weights = [rng.randint(0, 99) for _ in range(columns)]
        expr = LinExpr(dict(zip(variables, map(float, weights))))
        half = sum(weights) // 2
        model.add_constraint(expr == half if equal else expr <= half)
    profit = 9 if equal else 99
    model.set_objective(LinExpr({
        var: float(rng.randint(0, profit)) for var in variables
    }))
    return model


def record_runs(monkeypatch):
    """``(presolve option, model status)`` of each HiGHS run of a
    solve, in call order."""
    runs = []
    real_run = ilp_model._run

    def recording_run(core, lp, options):
        highs = real_run(core, lp, options)
        runs.append((options.get("presolve"),
                     highs.getModelStatus().name))
        return highs

    monkeypatch.setattr(ilp_model, "_run", recording_run)
    return runs


class TestAgainstMilpOracle:
    """The direct HiGHS binding solves every model as milp did."""

    @given(random_models())
    @settings(max_examples=150, deadline=None)
    def test_random_models_match_milp(self, model):
        try:
            expected = milp_oracle(model)
        except SolverError:
            # milp gives up at "unbounded or infeasible"; solve settles
            # it by whether the model has any point at all.
            result = model.solve()
            assert result.status is zero_objective_verdict(model)
            assert result.objective is None and result.values == {}
            return
        result = model.solve()
        assert result.status is expected.status
        if expected.objective is not None:
            assert result.objective == pytest.approx(
                expected.objective, rel=1e-9, abs=1e-9)
            assert result.best_bound == pytest.approx(
                expected.best_bound, rel=1e-9, abs=1e-9)
            assert result.gap == pytest.approx(expected.gap, abs=1e-9)
            assert model.is_feasible(result.values)

    @pytest.mark.parametrize("workload", ["tiny", "adpcm", "g721",
                                          "mpeg"])
    def test_casa_models_match_milp(self, workload):
        runner = StageRunner(store=ArtifactStore())
        _, bench = make_workbench(workload, 1.0, 0, runner=runner)
        for size in get_workload(workload).spm_sizes:
            model, _ = CasaAllocator().build_model(
                bench.conflict_graph, size, bench.spm_energy_model(size))
            expected = milp_oracle(model)
            result = model.solve()
            assert result.status is SolveStatus.OPTIMAL, size
            assert result.values == expected.values, size
            assert result.objective == expected.objective, size

    def test_infeasible(self):
        model = Model()
        x = model.add_binary("x")
        model.add_constraint(x >= 2)
        model.set_objective(x)
        result = assert_same_solve(model)
        assert result.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        model = Model("u", Sense.MAXIMIZE)
        model.set_objective(model.add_variable("x") + 0.0)
        result = assert_same_solve(model)
        assert result.status is SolveStatus.UNBOUNDED

    def test_unbounded_or_infeasible_retries_without_presolve(
            self, monkeypatch):
        # Presolve reports "unbounded or infeasible" on this MIP; only
        # the full solve without presolve tells which.
        model = Model("u", Sense.MAXIMIZE)
        x = model.add_variable("x", is_integer=True)
        y = model.add_variable("y")
        model.add_constraint(x - y <= 3)
        model.set_objective(x + y)
        runs = record_runs(monkeypatch)
        result = assert_same_solve(model)
        assert result.status is SolveStatus.UNBOUNDED
        assert runs == [(None, "kUnboundedOrInfeasible"),
                        ("off", "kUnbounded")]

    def test_infeasible_mip_with_unbounded_relaxation(self):
        # HiGHS stops at "unbounded or infeasible" with and without
        # presolve.  Row 3 forces x1 = 1; row 1 then needs
        # 3 * x0 = 4 (mod 5), which no binary x0 satisfies.
        model = Model("uoi")
        x0, x1 = model.add_binary("x0"), model.add_binary("x1")
        x2, x3, x4 = (model.add_variable(f"x{i}", is_integer=True)
                      for i in (2, 3, 4))
        model.add_constraint(5 * x4 - 5 * x3 - 3 * x0 - 5 * x2 - x1 + 5
                             == 0)
        model.add_constraint(-2 * x2 - 5 * x3 - 5 * x0 - 5 * x4 + 10
                             <= 0)
        model.add_constraint(2 * x0 - 5 * x1 + 2 <= 0)
        model.add_constraint(-5 * x3 + 2 <= 0)
        model.set_objective(-x0 + 4 * x1 - 3 * x2 + 4 * x3 - 2 * x4 + 3)
        with pytest.raises(SolverError):
            milp_oracle(model)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert result.status is zero_objective_verdict(model)
        assert result.objective is None and result.values == {}

    def test_feasible_mip_with_unbounded_relaxation(self):
        # The same HiGHS verdict on a model that has points: x1 grows
        # without bound while x0 follows it down.
        model = Model("uoi")
        x0 = model.add_variable("x0", -math.inf, 6.0)
        x1 = model.add_variable("x1", is_integer=True)
        x2 = model.add_variable("x2", -math.inf, 6.0)
        x3 = model.add_binary("x3")
        x4 = model.add_variable("x4", is_integer=True)
        model.add_constraint(-4 * x1 + 5 * x4 - 2 * x0 + 5 == 0)
        model.add_constraint(-2 * x0 - 3 * x4 - 4 * x2 - 4 >= 0)
        model.set_objective(-2 * x1 - 3 * x2 - 3 * x3 + 4 * x4 + 3)
        result = model.solve()
        assert result.status is SolveStatus.UNBOUNDED
        assert result.status is zero_objective_verdict(model)
        assert result.objective is None and result.values == {}

    def test_node_limit_with_incumbent(self):
        model = market_split(seed=2, rows=4, columns=40, equal=False)
        result = assert_same_solve(model, max_nodes=1)
        assert result.status is SolveStatus.NODE_LIMIT
        assert result.objective is not None
        assert result.gap > 0
        assert model.is_feasible(result.values)

    def test_node_limit_without_incumbent(self):
        model = market_split(seed=0, rows=2, columns=20, equal=True)
        result = assert_same_solve(model, max_nodes=1)
        assert result.status is SolveStatus.NODE_LIMIT
        assert result.objective is None and result.values == {}

    @pytest.mark.parametrize("seconds", [0, 0.0, -1.0])
    def test_zero_time_limit(self, seconds):
        model = market_split(seed=2, rows=4, columns=40, equal=False)
        result = assert_same_solve(model, max_seconds=seconds)
        assert result.status is SolveStatus.TIME_LIMIT
        assert result.objective is None


class TestDrawnGeneralModels:
    """Random general-integer models on which HiGHS alone ends on a
    point just outside ``is_feasible``'s 1e-6, or stops with "Solve
    error".  Each is pinned with its optimum worked out by hand."""

    def test_point_meets_its_row(self, monkeypatch):
        # The row sets x4 = x0 + (x2 + x3) / 2 - 1, so the objective
        # x2 + x3 + 2 x4 is 2 (x0 + x2 + x3) - 2, and x4 <= 10 caps x0
        # at 11 - (x2 + x3) / 2.  With s = x2 + x3 <= 11 and x0 an
        # integer, x0 + s peaks at 16 (s = 10 or 11): the optimum is
        # 30, e.g. at x0 = 5, x2 = 1, x3 = 10, x4 = 9.5.  HiGHS's MIP
        # point there has x4 = 9.5000005, which breaks the row by 1e-6.
        model = Model("drawn", Sense.MAXIMIZE)
        x0 = model.add_variable("x0", 0.0, math.inf, is_integer=True)
        x1 = model.add_binary("x1")
        x2 = model.add_binary("x2")
        x3 = model.add_variable("x3", 0.0, 10.0)
        x4 = model.add_variable("x4", 0.0, 10.0)
        model.add_constraint(2 * x0 + x2 + x3 - 2 * x4 - 2 == 0)
        model.set_objective(LinExpr({x0: 0.0, x1: 0.0, x2: 1.0, x3: 1.0,
                                     x4: 2.0}))
        runs = record_runs(monkeypatch)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(30.0, rel=1e-12)
        assert model.is_feasible(result.values, tolerance=1e-9)
        # The MIP solve, then the LP over x3 and x4 with x0..x2 fixed.
        assert runs == [(None, "kOptimal"), (None, "kOptimal")]

    def test_point_meets_its_inequality(self):
        # x4 = 2 x2 - 2 x1 + 4 x0 + 1 by the equality row, and the
        # objective x0 - x3 + x4 wants x3 at the least the inequality
        # allows, (5 x0 + 2 x4 - 3 x1 - 3 x2 + 6) / 3.  Enumerating
        # x0 in {0, 1}, x1 in [-3, 5] and x2 >= 0 with x4 in [0, 10]
        # gives the optimum 37/3 at x0 = 1, x1 = 5, x2 = 7, x3 = -7/3,
        # x4 = 9.  HiGHS's MIP point has x3 = -2.333334333, which
        # breaks the inequality by 3e-6.
        model = Model("drawn", Sense.MAXIMIZE)
        x0 = model.add_binary("x0")
        x1 = model.add_variable("x1", -3.0, 5.0, is_integer=True)
        x2 = model.add_variable("x2", 0.0, math.inf, is_integer=True)
        x3 = model.add_variable("x3", -2.5, math.inf)
        x4 = model.add_variable("x4", 0.0, 10.0)
        model.add_constraint(-2 * x1 + 2 * x2 + 4 * x0 - x4 + 1 == 0)
        model.add_constraint(5 * x0 + 2 * x4 - 3 * x1 - 3 * x2 - 3 * x3
                             + 6 <= 0)
        model.set_objective(x0 - x3 + x4)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(37 / 3, rel=1e-12)
        assert model.is_feasible(result.values, tolerance=1e-9)

    @staticmethod
    def solve_error_model():
        # The equality row needs 5 x2 = 5 x1 + 4 (x0 + x4) + 2, so
        # x0 + x4 = 2 and x2 = x1 + 2; the third row then needs
        # 3 x4 >= 2 x1 + 5, which no binary x4 meets: infeasible.
        model = Model("drawn", Sense.MAXIMIZE)
        x0 = model.add_variable("x0", 0.0, 4.0, is_integer=True)
        x1 = model.add_binary("x1")
        x2 = model.add_variable("x2", 0.0, math.inf, is_integer=True)
        x3 = model.add_variable("x3", -math.inf, 6.0)
        x4 = model.add_binary("x4")
        model.add_constraint(5 * x1 + 4 * x0 - 5 * x2 + 4 * x4 + 2 == 0)
        model.add_constraint(-3 * x3 + 4 <= 0)
        model.add_constraint(-2 * x2 + 4 * x1 - 3 * x4 + 9 <= 0)
        model.add_constraint(LinExpr({x3: -1.0, x0: -4.0, x4: 0.0,
                                      x2: 4.0, x1: 1.0}, -2.0) <= 0)
        model.set_objective(-x0 - 3 * x1 - 3 * x2 + 3 * x3 - x4 + 2)
        return model

    def test_solve_error_retries_without_presolve(self, monkeypatch):
        model = self.solve_error_model()
        runs = record_runs(monkeypatch)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert result.objective is None and result.values == {}
        assert runs == [(None, "kSolveError"), ("off", "kInfeasible")]

    def test_solve_error_on_the_retry_raises(self, monkeypatch):
        real_run = ilp_model._run

        def presolve_always(core, lp, options):
            options = {name: value for name, value in options.items()
                       if name != "presolve"}
            return real_run(core, lp, options)

        monkeypatch.setattr(ilp_model, "_run", presolve_always)
        with pytest.raises(SolverError, match="HiGHS failed: Solve error"):
            self.solve_error_model().solve()


class TestDegenerateModels:
    """Models HiGHS cannot take are decided or refused in the ILP layer."""

    @pytest.fixture
    def no_highs(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("HiGHS was called")

        monkeypatch.setattr(ilp_model, "_run", refuse)

    def test_empty_model_is_optimal_at_zero(self, no_highs):
        result = Model().solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == 0.0
        assert result.values == {}
        assert (result.best_bound, result.gap) == (0.0, 0.0)

    def test_constant_model_is_optimal_at_its_constant(self, no_highs):
        model = Model("c", Sense.MAXIMIZE)
        model.set_objective(4.5)
        model.add_constraint(Constraint(LinExpr(constant=-1.0), "<="))
        model.add_constraint(Constraint(LinExpr(constant=0.0), "=="))
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == 4.5

    @pytest.mark.parametrize("sense", ["<=", ">=", "=="])
    def test_violated_constant_row_is_infeasible(self, no_highs, sense):
        model = Model()
        model.set_objective(1.0)
        constant = {"<=": 1.0, ">=": -1.0, "==": 2.0}[sense]
        model.add_constraint(
            Constraint(LinExpr(constant=constant), sense))
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert result.objective is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["objective", "row", "rhs",
                                       "objective constant"])
    def test_non_finite_coefficient_raises(self, no_highs, bad, where):
        model = Model("bad")
        x = model.add_binary("x")
        y = model.add_binary("y")
        objective = {x: 1.0, y: 2.0}
        row = {x: 1.0, y: 1.0}
        rhs, constant = 1.0, 0.0
        if where == "objective":
            objective[y] = bad
        elif where == "row":
            row[y] = bad
        elif where == "rhs":
            rhs = bad
        else:
            constant = bad
        model.set_objective(LinExpr(objective, constant))
        model.add_constraint(Constraint(LinExpr(row, -rhs), "<="),
                             "cap")
        with pytest.raises(SolverError, match="not finite"):
            model.solve()

    @pytest.mark.parametrize("lower, upper", [
        (math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf),
        (-math.inf, -math.inf),
    ])
    def test_non_finite_bound_raises(self, no_highs, lower, upper):
        model = Model("bad")
        x = model.add_variable("x", lower, upper)
        model.set_objective(x + 0.0)
        with pytest.raises(SolverError, match="bound of 'x' is not"):
            model.solve()

    def test_non_finite_constant_only_model_raises(self, no_highs):
        model = Model()
        model.set_objective(math.nan)
        with pytest.raises(SolverError, match="not finite"):
            model.solve()

    def test_open_bounds_are_fine(self):
        model = Model()
        x = model.add_variable("x", -math.inf, math.inf)
        model.add_constraint(x >= -2)
        model.set_objective(x + 0.0)
        result = model.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-2.0)
