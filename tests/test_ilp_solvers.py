"""Tests for Model.solve on HiGHS, including brute-force cross-checks
on random instances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import milp

import repro.ilp.model as ilp_model
from repro.core.casa import CasaAllocator
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore
from repro.ilp.model import Model, Sense, SolveStatus


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
        monkeypatch.setattr(ilp_model, "_milp_quietly", milp)
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
