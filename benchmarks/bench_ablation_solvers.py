"""Ablation A: exact ILP vs. greedy CASA vs. solver machinery timing.

Not in the paper — quantifies what the exact ILP buys over a greedy
conflict-aware heuristic, and times the allocator itself (the paper
notes "less than a second" for CPLEX on up to 19.5 kB programs; HiGHS
should stay in the same ballpark).
"""

import pytest

from repro.core.annealing import AnnealingAllocator
from repro.core.casa import CasaAllocator
from repro.core.greedy_allocator import GreedyCasaAllocator
from repro.utils.tables import format_table

from conftest import write_report

SPM_SIZES = (128, 256, 512, 1024)


@pytest.fixture(scope="module")
def comparison(mpeg_bench):
    rows = []
    for size in SPM_SIZES:
        model = mpeg_bench.spm_energy_model(size)
        graph = mpeg_bench.conflict_graph
        exact = CasaAllocator().allocate(graph, size, model)
        greedy = GreedyCasaAllocator().allocate(graph, size, model)
        annealed = AnnealingAllocator().allocate(graph, size, model)
        exact_sim = mpeg_bench.evaluate_spm(exact, size)
        greedy_sim = mpeg_bench.evaluate_spm(greedy, size)
        rows.append((size, exact, greedy, annealed, exact_sim,
                     greedy_sim))
    return rows


def test_ablation_report(benchmark, comparison):
    benchmark.pedantic(lambda: comparison, rounds=1, iterations=1)
    headers = ["SPM", "ILP pred uJ", "greedy pred uJ",
               "annealing pred uJ", "ILP sim uJ", "greedy sim uJ",
               "B&B nodes"]
    table_rows = []
    for size, exact, greedy, annealed, exact_sim, greedy_sim \
            in comparison:
        table_rows.append([
            f"{size}B",
            f"{exact.predicted_energy / 1e3:.2f}",
            f"{greedy.predicted_energy / 1e3:.2f}",
            f"{annealed.predicted_energy / 1e3:.2f}",
            f"{exact_sim.energy.total / 1e3:.2f}",
            f"{greedy_sim.energy.total / 1e3:.2f}",
            exact.solver_nodes,
        ])
    write_report(
        "ablation_solvers",
        format_table(headers, table_rows,
                     title="Ablation A - exact ILP vs. greedy vs. "
                           "annealing (mpeg)"),
    )


def test_ilp_never_worse_than_greedy_under_model(comparison):
    for _, exact, greedy, _, _, _ in comparison:
        assert exact.predicted_energy <= greedy.predicted_energy + 1e-6


def test_ilp_never_worse_than_annealing_under_model(comparison):
    for _, exact, _, annealed, _, _ in comparison:
        assert exact.predicted_energy <= \
            annealed.predicted_energy + 1e-6


def test_ilp_solver_speed(benchmark, mpeg_bench):
    """Time one CASA ILP solve on the mpeg conflict graph (paper:
    'less than a second' with CPLEX)."""
    graph = mpeg_bench.conflict_graph
    model = mpeg_bench.spm_energy_model(512)
    allocator = CasaAllocator()
    result = benchmark.pedantic(
        lambda: allocator.allocate(graph, 512, model),
        rounds=3, iterations=1,
    )
    assert result.predicted_energy is not None


def test_greedy_solver_speed(benchmark, mpeg_bench):
    graph = mpeg_bench.conflict_graph
    model = mpeg_bench.spm_energy_model(512)
    allocator = GreedyCasaAllocator()
    benchmark.pedantic(
        lambda: allocator.allocate(graph, 512, model),
        rounds=3, iterations=1,
    )
