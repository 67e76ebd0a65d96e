"""Tests for repro.api (the Session facade)."""

import pytest

from repro import Session, get_workload
from repro.api import EVALUATE_METHODS
from repro.core.allocation import Allocation
from repro.core.conflict_graph import ConflictGraph
from repro.errors import ConfigurationError
from repro.memory.stats import SimulationReport


@pytest.fixture(scope="module")
def session():
    return Session("tiny")


class TestVerbs:
    def test_simulate_returns_baseline_report(self, session):
        report = session.simulate()
        assert isinstance(report, SimulationReport)
        assert report.total_fetches > 0
        assert report.spm_accesses == 0

    def test_conflict_graph(self, session):
        graph = session.conflict_graph()
        assert isinstance(graph, ConflictGraph)
        assert graph.num_nodes > 0

    def test_allocate_returns_decision(self, session):
        decision = session.allocate("casa")
        assert isinstance(decision, Allocation)
        assert decision.algorithm == "casa"

    def test_evaluate_matches_workbench(self, session):
        result = session.evaluate("casa")
        expected = session.workbench.run_casa(session.spm_size)
        assert result.energy.total == expected.energy.total

    def test_evaluate_every_spm_method(self, session):
        baseline = session.evaluate("baseline").energy.total
        for method in ("casa", "steinke", "greedy"):
            result = session.evaluate(method)
            assert 0 < result.energy.total <= baseline

    def test_evaluate_ross_accepts_options(self, session):
        result = session.evaluate("ross", max_regions=2)
        assert result.allocation.algorithm == "ross"

    def test_unknown_method_raises(self, session):
        with pytest.raises(ConfigurationError, match="choose from"):
            session.evaluate("magic")
        assert "casa" in EVALUATE_METHODS


class TestDefaults:
    def test_spm_size_defaults_to_workload_smallest(self, session):
        workload = get_workload("tiny")
        assert session.spm_size == min(workload.spm_sizes)

    def test_explicit_spm_size_wins(self):
        session = Session("tiny", spm_size=128)
        assert session.spm_size == 128
        result = session.evaluate("casa")
        assert result.allocation.capacity == 128

    def test_per_call_size_override(self, session):
        result = session.evaluate("casa", spm_size=128)
        assert result.allocation.capacity == 128

    def test_repr_names_the_workload(self, session):
        assert "tiny" in repr(session)


class TestBackends:
    def test_vector_session_matches_reference(self):
        reference = Session("tiny", backend="reference")
        vector = Session("tiny", backend="vector")
        assert vector.evaluate("casa").energy.total == \
            reference.evaluate("casa").energy.total
        ref_report = reference.simulate()
        vec_report = vector.simulate()
        assert vec_report.mo_stats == ref_report.mo_stats

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            Session("tiny", backend="warp").simulate()


class TestRawProgram:
    def test_program_session(self):
        workload = get_workload("tiny")
        session = Session(workload.program, workload.cache, 64)
        result = session.evaluate("casa")
        assert result.energy.total > 0

    def test_program_session_without_size_raises(self):
        workload = get_workload("tiny")
        session = Session(workload.program, workload.cache)
        with pytest.raises(ConfigurationError, match="spm_size"):
            session.evaluate("casa")

    def test_program_session_simulate_needs_no_size(self):
        workload = get_workload("tiny")
        session = Session(workload.program, workload.cache)
        assert session.simulate().total_fetches > 0
