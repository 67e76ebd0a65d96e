"""Tests for the repro.io JSON helpers (serialisation roundtrips)."""

import json

import pytest

from repro.core.allocation import Allocation
from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.errors import ConfigurationError
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    conflict_graph_from_dict,
    conflict_graph_to_dict,
    load_allocation,
    load_conflict_graph,
    report_to_dict,
    save_allocation,
    save_conflict_graph,
)
from repro.memory.loopcache import LoopRegion
from repro.traces.layout import Placement


def make_graph():
    graph = ConflictGraph()
    graph.add_node(ConflictNode("A", fetches=100, size=64,
                                compulsory_misses=3, self_misses=1))
    graph.add_node(ConflictNode("B", fetches=50, size=32))
    graph.add_edge("A", "B", 12)
    return graph


class TestConflictGraphRoundtrip:
    def test_dict_roundtrip(self):
        graph = make_graph()
        rebuilt = conflict_graph_from_dict(conflict_graph_to_dict(graph))
        assert rebuilt.node("A").fetches == 100
        assert rebuilt.node("A").self_misses == 1
        assert rebuilt.edge_weight("A", "B") == 12
        assert rebuilt.num_nodes == 2

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "graph.json"
        save_conflict_graph(make_graph(), path)
        rebuilt = load_conflict_graph(path)
        assert rebuilt.node("B").size == 32

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            conflict_graph_from_dict({"kind": "allocation"})

    def test_json_is_valid(self, tmp_path):
        path = tmp_path / "graph.json"
        save_conflict_graph(make_graph(), path)
        data = json.loads(path.read_text())
        assert data["format"] == 1


class TestAllocationRoundtrip:
    def make(self):
        return Allocation(
            algorithm="casa",
            spm_resident=frozenset({"T1", "T7"}),
            loop_regions=(LoopRegion("loop:x", 0x100, 64),),
            placement=Placement.COMPACT,
            predicted_energy=123.5,
            solver_nodes=42,
            capacity=256,
            used_bytes=96,
        )

    def test_dict_roundtrip(self):
        allocation = self.make()
        rebuilt = allocation_from_dict(allocation_to_dict(allocation))
        assert rebuilt.spm_resident == allocation.spm_resident
        assert rebuilt.placement is Placement.COMPACT
        assert rebuilt.loop_regions[0].start == 0x100
        assert rebuilt.predicted_energy == pytest.approx(123.5)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(self.make(), path)
        rebuilt = load_allocation(path)
        assert rebuilt.algorithm == "casa"
        assert rebuilt.capacity == 256

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            allocation_from_dict({"kind": "conflict_graph"})


class TestReportExport:
    def test_report_dict(self, tiny_workbench):
        report = tiny_workbench.baseline_report
        data = report_to_dict(report)
        assert data["totals"]["fetches"] == report.total_fetches
        assert data["totals"]["cache_misses"] == report.cache_misses
        assert set(data["objects"]) == set(report.mo_stats)
        # serialisable
        json.dumps(data)
