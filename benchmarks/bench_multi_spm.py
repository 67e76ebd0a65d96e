"""Extension benchmark: multiple scratchpads at one level (section 4).

Compares a single 512 B scratchpad against 2 x 256 B scratchpads with
the extended ILP.  Two smaller memories are individually cheaper per
access, so splitting a fixed byte budget can reduce energy further —
the effect the paper's extension enables.
"""

import pytest

from repro.core.casa import CasaAllocator
from repro.core.multi_spm import MultiScratchpadAllocator, ScratchpadSpec
from repro.utils.tables import format_table

from conftest import write_report


@pytest.fixture(scope="module")
def results(mpeg_bench):
    # The multi-SPM ILP doubles the binary count per object; restrict
    # it to the hottest objects (the cold tail is never allocated
    # anyway) so the solve stays fast.
    graph = mpeg_bench.conflict_graph.hottest(40)
    model = mpeg_bench.spm_energy_model(512)

    single = CasaAllocator().allocate(graph, 512, model)
    split = MultiScratchpadAllocator([
        ScratchpadSpec("spm0", 256),
        ScratchpadSpec("spm1", 256),
    ]).allocate(graph, energy=model)
    return single, split


def test_multi_spm_report(benchmark, mpeg_bench, results):
    single, split = results
    graph = mpeg_bench.conflict_graph.hottest(40)
    model = mpeg_bench.spm_energy_model(512)

    def solve_split():
        return MultiScratchpadAllocator([
            ScratchpadSpec("spm0", 256),
            ScratchpadSpec("spm1", 256),
        ]).allocate(graph, energy=model)

    benchmark.pedantic(solve_split, rounds=1, iterations=1)

    headers = ["configuration", "objects", "predicted uJ", "B&B nodes"]
    rows = [
        ["1 x 512B", len(single.spm_resident),
         f"{single.predicted_energy / 1e3:.2f}", single.solver_nodes],
        ["2 x 256B", len(split.all_residents),
         f"{split.predicted_energy / 1e3:.2f}", split.solver_nodes],
    ]
    write_report(
        "multi_spm",
        format_table(headers, rows,
                     title="Extension - multi-scratchpad ILP (mpeg, "
                           "512 B total)"),
    )


def test_split_budget_not_worse(results):
    """Same byte budget, finer granularity: the extended ILP should
    find an assignment at least as good under its own model."""
    single, split = results
    assert split.predicted_energy <= single.predicted_energy * 1.02


def test_split_respects_both_capacities(mpeg_bench, results):
    _, split = results
    graph = mpeg_bench.conflict_graph.hottest(40)
    for spm in ("spm0", "spm1"):
        used = sum(graph.node(n).size for n in split.residents_of(spm))
        assert used <= 256
