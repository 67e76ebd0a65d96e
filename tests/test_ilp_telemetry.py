"""Solver telemetry from HiGHS: nodes, proven bounds, gaps, budgets."""

from __future__ import annotations

import pytest

from repro.ilp.model import Model, Sense, SolveStatus
from repro.obs.metrics import MetricsRegistry, set_registry


def knapsack(n: int = 8, capacity: int = 11) -> Model:
    """A small fractional-at-the-root knapsack."""
    model = Model("knap", Sense.MAXIMIZE)
    variables = [model.add_binary(f"x{i}") for i in range(n)]
    weight = sum((3 * v for v in variables), start=0 * variables[0])
    model.add_constraint(weight <= capacity)
    model.set_objective(sum(
        ((i % 5 + 1) * v for i, v in enumerate(variables)),
        start=0 * variables[0],
    ))
    return model


class TestSolveTelemetry:
    def test_optimal_gap_is_zero(self):
        result = knapsack().solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.best_bound == pytest.approx(result.objective)
        assert result.gap == pytest.approx(0.0)
        assert result.nodes_explored >= 1

    def test_node_limit_keeps_a_bound(self):
        result = knapsack(n=14, capacity=17).solve(max_nodes=2)
        assert result.status in (SolveStatus.OPTIMAL,
                                 SolveStatus.NODE_LIMIT)
        if result.status is SolveStatus.NODE_LIMIT:
            assert result.nodes_explored >= 1
        if result.objective is not None:
            assert result.best_bound is not None
            # A maximisation bound sits at or above the incumbent.
            assert result.best_bound >= result.objective - 1e-9

    def test_zero_node_budget_skips_the_solve(self):
        result = knapsack().solve(max_nodes=0)
        assert result.status is SolveStatus.NODE_LIMIT
        assert result.nodes_explored == 0
        assert result.objective is None

    def test_zero_time_budget_reports_time_limit(self):
        result = knapsack(n=14, capacity=17).solve(max_seconds=-1.0)
        assert result.status is SolveStatus.TIME_LIMIT

    def test_pure_lp_bound_is_its_optimum(self):
        model = Model("lp", Sense.MAXIMIZE)
        x = model.add_variable("x", 0, 3)
        model.set_objective(2 * x + 1)
        result = model.solve()
        assert result.objective == pytest.approx(7.0)
        assert result.best_bound == result.objective
        assert result.gap == 0.0
        assert result.nodes_explored == 0


class TestSolveMetrics:
    def test_metrics_count_solver_work(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            result = knapsack().solve()
        finally:
            set_registry(previous)
        assert registry.value("ilp.solves") == 1
        assert registry.value("ilp.nodes") == result.nodes_explored
        assert registry.value("ilp.nodes") >= 1
