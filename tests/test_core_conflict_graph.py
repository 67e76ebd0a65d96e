"""Tests for repro.core.conflict_graph."""

import pytest

from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError
from repro.memory.stats import MemoryObjectStats, SimulationReport


def graph_abc():
    """A small hand-built graph: A<->B heavy conflict, C isolated."""
    graph = ConflictGraph()
    graph.add_node(ConflictNode("A", fetches=1000, size=64,
                                compulsory_misses=4))
    graph.add_node(ConflictNode("B", fetches=800, size=64,
                                compulsory_misses=4))
    graph.add_node(ConflictNode("C", fetches=200, size=32,
                                compulsory_misses=2))
    graph.add_edge("A", "B", 300)
    graph.add_edge("B", "A", 250)
    return graph


MODEL = EnergyModel(cache_hit=1.0, cache_miss=21.0, spm_access=0.5)


class TestConstruction:
    def test_duplicate_node(self):
        graph = graph_abc()
        with pytest.raises(ConfigurationError):
            graph.add_node(ConflictNode("A", 1, 1))

    def test_edge_needs_nodes(self):
        graph = graph_abc()
        with pytest.raises(ConfigurationError):
            graph.add_edge("A", "Z", 1)

    def test_self_edge_rejected(self):
        graph = graph_abc()
        with pytest.raises(ConfigurationError):
            graph.add_edge("A", "A", 1)

    def test_zero_weight_rejected(self):
        graph = graph_abc()
        with pytest.raises(ConfigurationError):
            graph.add_edge("A", "C", 0)

    def test_parallel_edges_merge(self):
        graph = graph_abc()
        graph.add_edge("A", "C", 5)
        graph.add_edge("A", "C", 7)
        assert graph.edge_weight("A", "C") == 12
        assert graph.num_edges == 3


class TestQueries:
    def test_counts(self):
        graph = graph_abc()
        assert graph.num_nodes == 3
        assert graph.num_edges == 2

    def test_conflicts_of(self):
        graph = graph_abc()
        assert graph.conflicts_of("A") == [("B", 300)]
        assert graph.conflicts_of("C") == []

    def test_victims_of(self):
        graph = graph_abc()
        assert graph.victims_of("A") == [("B", 250)]

    def test_total_conflict_misses_includes_self(self):
        graph = graph_abc()
        graph.node("C").self_misses = 10
        assert graph.total_conflict_misses == 300 + 250 + 10


class TestFromSimulation:
    def make_report(self):
        report = SimulationReport()
        report.mo_stats["T0"] = MemoryObjectStats(
            "T0", fetches=100, cache_hits=90, cache_misses=10,
            compulsory_misses=2)
        report.mo_stats["T1"] = MemoryObjectStats(
            "T1", fetches=50, cache_hits=45, cache_misses=5,
            compulsory_misses=1)
        report.conflict_misses[("T0", "T1")] = 8
        report.conflict_misses[("T1", "T1")] = 4  # self conflict
        return report

    def make_mos(self, tiny_workbench=None):
        # minimal stand-ins: objects with names and sizes
        class FakeMo:
            def __init__(self, name, size):
                self.name = name
                self.unpadded_size = size
        return [FakeMo("T0", 64), FakeMo("T1", 32)]

    def test_builds_nodes_edges(self):
        graph = ConflictGraph.from_simulation(
            self.make_mos(), self.make_report())
        assert graph.node("T0").fetches == 100
        assert graph.node("T0").size == 64
        assert graph.edge_weight("T0", "T1") == 8
        assert graph.node("T1").self_misses == 4

    def test_rejects_spm_profiled_report(self):
        report = self.make_report()
        report.mo_stats["T0"].spm_accesses = 5
        with pytest.raises(ConfigurationError):
            ConflictGraph.from_simulation(self.make_mos(), report)

    def test_unfetched_object_gets_zero_node(self):
        report = self.make_report()
        class FakeMo:
            def __init__(self, name, size):
                self.name = name
                self.unpadded_size = size
        mos = self.make_mos() + [FakeMo("T9", 16)]
        graph = ConflictGraph.from_simulation(mos, report)
        assert graph.node("T9").fetches == 0


class TestPredictedEnergy:
    def test_empty_allocation(self):
        graph = graph_abc()
        energy = graph.predicted_energy(set(), MODEL)
        expected = (
            (1000 + 800 + 200) * 1.0           # hits
            + (300 + 250) * 20.0               # conflict misses
            + (4 + 4 + 2) * 20.0               # compulsory
        )
        assert energy == pytest.approx(expected)

    def test_allocating_evictor_removes_edge_term(self):
        graph = graph_abc()
        without_b = graph.predicted_energy({"B"}, MODEL)
        expected = (
            1000 * 1.0 + 200 * 1.0            # A, C cached hits
            + 800 * 0.5                       # B on SPM
            + (4 + 2) * 20.0                  # compulsory of A and C
        )
        assert without_b == pytest.approx(expected)

    def test_compulsory_flag(self):
        graph = graph_abc()
        with_comp = graph.predicted_energy(set(), MODEL,
                                           include_compulsory=True)
        without = graph.predicted_energy(set(), MODEL,
                                         include_compulsory=False)
        assert with_comp - without == pytest.approx(10 * 20.0)

    def test_unknown_object_rejected(self):
        graph = graph_abc()
        with pytest.raises(ConfigurationError):
            graph.predicted_energy({"Z"}, MODEL)

    def test_monotone_improvement_for_isolated_node(self):
        graph = graph_abc()
        base = graph.predicted_energy(set(), MODEL)
        with_c = graph.predicted_energy({"C"}, MODEL)
        assert with_c < base


class TestExport:
    def test_dot_output(self):
        dot = graph_abc().to_dot()
        assert dot.startswith("digraph")
        assert '"A" -> "B" [label="300"]' in dot


class TestDeterminism:
    """subgraph/hottest order is independent of input iteration."""

    def test_subgraph_order_follows_parent(self):
        graph = graph_abc()
        expected = graph.subgraph(["A", "B", "C"])
        for names in (["C", "B", "A"], {"A", "B", "C"},
                      frozenset({"C", "A", "B"})):
            sub = graph.subgraph(names)
            assert sub.node_names == expected.node_names
            assert sub.edges() == expected.edges()

    def test_subgraph_accepts_generator(self):
        graph = graph_abc()
        sub = graph.subgraph(name for name in ("B", "A"))
        assert sub.node_names == ["A", "B"]
        assert sub.edges() == [("A", "B", 300), ("B", "A", 250)]

    def test_hottest_breaks_ties_by_insertion(self):
        graph = ConflictGraph()
        for name in ("X", "Y", "Z"):
            graph.add_node(ConflictNode(name, fetches=100, size=16))
        assert graph.hottest(2).node_names == ["X", "Y"]

    def test_hottest_keeps_parent_order(self):
        graph = graph_abc()
        # B and A are hottest; the subgraph still lists A first
        # because the parent inserted it first.
        assert graph.hottest(2).node_names == ["A", "B"]
