"""Solver budget exhaustion: TIME_LIMIT status and the greedy ladder."""

from __future__ import annotations

import pytest

from repro.core.casa import CasaAllocator, CasaConfig
from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.core.greedy_allocator import GreedyCasaAllocator
from repro.energy.model import EnergyModel
from repro.errors import DegradedResultError
from repro.ilp.model import Model, Sense, SolveStatus
from repro.obs.metrics import MetricsRegistry, set_registry

MODEL = EnergyModel(cache_hit=1.0, cache_miss=21.0, spm_access=0.5)


@pytest.fixture
def registry():
    """A metrics registry installed as the active one."""
    active = MetricsRegistry()
    previous = set_registry(active)
    yield active
    set_registry(previous)


def make_tight_graph() -> ConflictGraph:
    """A capacity-tight instance whose LP relaxation is fractional.

    Equal-benefit objects that do not pack evenly into the scratchpad
    leave the root relaxation fractional, so branch & bound cannot
    prove optimality at the root and a zero/negative budget genuinely
    cuts the search short.
    """
    graph = ConflictGraph()
    for name, fetches in (("A", 900), ("B", 880), ("C", 860),
                          ("D", 840)):
        graph.add_node(ConflictNode(name, fetches=fetches, size=64))
    graph.add_edge("A", "B", 120)
    graph.add_edge("B", "C", 110)
    graph.add_edge("C", "D", 100)
    graph.add_edge("D", "A", 90)
    return graph


def test_solver_reports_time_limit_status():
    model = Model("m", Sense.MAXIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_constraint(2 * x + 2 * y <= 3)
    model.set_objective(x + y)
    result = model.solve(max_seconds=-1.0)
    assert result.status is SolveStatus.TIME_LIMIT


def test_time_budget_degrades_to_greedy(registry):
    graph = make_tight_graph()
    config = CasaConfig(max_seconds=-1.0)
    allocation = CasaAllocator(config).allocate(graph, 96, MODEL)
    assert allocation.solver_status == "degraded"
    assert allocation.algorithm == "casa"
    greedy = GreedyCasaAllocator().allocate(graph, 96, MODEL)
    assert allocation.spm_resident == greedy.spm_resident
    assert allocation.predicted_energy == greedy.predicted_energy
    assert registry.value("solver.degraded") == 1


def test_node_budget_degrades_to_greedy():
    graph = make_tight_graph()
    config = CasaConfig(max_nodes=0)
    allocation = CasaAllocator(config).allocate(graph, 96, MODEL)
    assert allocation.solver_status == "degraded"
    assert allocation.capacity == 96
    assert sum(graph.node(name).size
               for name in allocation.spm_resident) <= 96


def test_raise_fallback_raises_typed_error():
    graph = make_tight_graph()
    config = CasaConfig(max_seconds=-1.0, fallback="raise")
    with pytest.raises(DegradedResultError) as excinfo:
        CasaAllocator(config).allocate(graph, 96, MODEL)
    assert excinfo.value.site == "ilp.solve"


def test_unlimited_budget_stays_optimal():
    graph = make_tight_graph()
    allocation = CasaAllocator().allocate(graph, 96, MODEL)
    assert allocation.solver_status == "optimal"
