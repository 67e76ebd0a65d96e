"""Tests for the CASA ILP allocator."""

import dataclasses
import itertools

import pytest

from repro.core.casa import CasaAllocator, CasaConfig
from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.core.multi_spm import MultiScratchpadAllocator, ScratchpadSpec
from repro.core.unified import UnifiedCasaAllocator
from repro.energy.model import EnergyModel
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore
from repro.ilp import Model, SolveStatus
from repro.traces.layout import Placement
from repro.workloads.registry import get_workload

MODEL = EnergyModel(cache_hit=1.0, cache_miss=21.0, spm_access=0.5)


def make_graph(nodes, edges):
    graph = ConflictGraph()
    for name, fetches, size in nodes:
        graph.add_node(ConflictNode(name, fetches=fetches, size=size))
    for victim, evictor, weight in edges:
        graph.add_edge(victim, evictor, weight)
    return graph


def brute_force_best(graph, spm_size, model, include_compulsory=True):
    names = graph.node_names
    best = None
    for mask in itertools.product((0, 1), repeat=len(names)):
        resident = {n for n, take in zip(names, mask) if take}
        used = sum(graph.node(n).size for n in resident)
        if used > spm_size:
            continue
        energy = graph.predicted_energy(resident, model,
                                        include_compulsory)
        if best is None or energy < best:
            best = energy
    return best


class TestOptimality:
    def test_matches_brute_force_on_triangle(self):
        graph = make_graph(
            [("A", 1000, 64), ("B", 800, 64), ("C", 900, 64)],
            [("A", "B", 100), ("B", "C", 150), ("C", "A", 120),
             ("B", "A", 80)],
        )
        for spm_size in (0, 64, 128, 192):
            allocation = CasaAllocator().allocate(graph, spm_size, MODEL)
            assert allocation.predicted_energy == pytest.approx(
                brute_force_best(graph, spm_size, MODEL)
            )

    def test_predicted_energy_matches_formula(self):
        graph = make_graph(
            [("A", 500, 32), ("B", 400, 32)],
            [("A", "B", 50)],
        )
        allocation = CasaAllocator().allocate(graph, 32, MODEL)
        assert allocation.predicted_energy == pytest.approx(
            graph.predicted_energy(set(allocation.spm_resident), MODEL)
        )

    def test_prefers_conflict_resolution_over_fetch_count(self):
        # D has the most fetches, but A/B thrash each other; with one
        # slot the conflict-heavy object wins despite fewer fetches.
        graph = make_graph(
            [("A", 300, 64), ("B", 300, 64), ("D", 400, 64)],
            [("A", "B", 500), ("B", "A", 500)],
        )
        allocation = CasaAllocator().allocate(graph, 64, MODEL)
        assert allocation.spm_resident & {"A", "B"}
        assert "D" not in allocation.spm_resident


class TestConstraints:
    def test_zero_spm_selects_nothing(self):
        graph = make_graph([("A", 100, 32)], [])
        allocation = CasaAllocator().allocate(graph, 0, MODEL)
        assert allocation.spm_resident == frozenset()

    def test_capacity_respected(self):
        graph = make_graph(
            [(f"N{i}", 100 * (i + 1), 48) for i in range(6)], []
        )
        allocation = CasaAllocator().allocate(graph, 100, MODEL)
        used = sum(graph.node(n).size for n in allocation.spm_resident)
        assert used <= 100
        assert allocation.used_bytes == used

    def test_everything_fits(self):
        graph = make_graph(
            [("A", 100, 16), ("B", 50, 16)], [("A", "B", 10)]
        )
        allocation = CasaAllocator().allocate(graph, 1024, MODEL)
        assert allocation.spm_resident == {"A", "B"}


class TestConfig:
    def test_conflict_term_off_reduces_to_fetch_knapsack(self):
        graph = make_graph(
            [("A", 300, 64), ("B", 300, 64), ("D", 400, 64)],
            [("A", "B", 500), ("B", "A", 500)],
        )
        allocator = CasaAllocator(CasaConfig(conflict_term=False,
                                             include_compulsory=False))
        allocation = allocator.allocate(graph, 64, MODEL)
        # without the conflict term, the hottest object wins
        assert allocation.spm_resident == {"D"}

    def test_compulsory_term(self):
        graph = make_graph([("A", 10, 32), ("B", 10, 32)], [])
        graph.node("A").compulsory_misses = 100
        with_comp = CasaAllocator(CasaConfig(include_compulsory=True))
        allocation = with_comp.allocate(graph, 32, MODEL)
        assert allocation.spm_resident == {"A"}

    def test_self_misses_counted(self):
        graph = make_graph([("A", 10, 32), ("B", 10, 32)], [])
        graph.node("B").self_misses = 100
        allocation = CasaAllocator(
            CasaConfig(include_compulsory=False)
        ).allocate(graph, 32, MODEL)
        assert allocation.spm_resident == {"B"}


class TestModelStructure:
    def test_variable_count_matches_paper(self):
        """|variables| = |V| + |E| (section 4)."""
        graph = make_graph(
            [("A", 10, 16), ("B", 10, 16), ("C", 10, 16)],
            [("A", "B", 5), ("B", "C", 5)],
        )
        model, _ = CasaAllocator().build_model(graph, 64, MODEL)
        assert model.num_variables == 3 + 2

    def test_linearisation_constraint_count(self):
        graph = make_graph(
            [("A", 10, 16), ("B", 10, 16)],
            [("A", "B", 5), ("B", "A", 3)],
        )
        model, _ = CasaAllocator().build_model(graph, 64, MODEL)
        # one row l_i + l_j - L <= 1 per edge + 1 capacity
        assert model.num_constraints == 2 + 1

    def test_allocation_metadata(self):
        graph = make_graph([("A", 1000, 32)], [])
        allocation = CasaAllocator().allocate(graph, 64, MODEL)
        assert allocation.algorithm == "casa"
        assert allocation.placement is Placement.COPY
        assert allocation.capacity == 64
        assert "casa" in allocation.describe()


def paper_form(graph, spm_size, energy):
    """The CASA model with the paper's eqs. 13-15 on every product
    variable, on top of the one row ``l_i + l_j - L <= 1`` that
    :meth:`CasaAllocator.build_model` emits."""
    model, location = CasaAllocator().build_model(graph, spm_size, energy)
    products = {var.name: var for var in model.variables}
    for victim, evictor, _ in graph.edges():
        product = products[f"L[{victim},{evictor}]"]
        l_i, l_j = location[victim], location[evictor]
        model.add_constraint(l_i - product >= 0, f"eq13[{victim},{evictor}]")
        model.add_constraint(l_j - product >= 0, f"eq14[{victim},{evictor}]")
        model.add_constraint(l_i + l_j - 2 * product <= 1,
                             f"eq15[{victim},{evictor}]")
    return model, location


class TestReducedLinearisation:
    """Dropping eqs. 13-15 changes no Table 1 allocation.

    Compared at seeds 0 and 3 only: at adpcm/64, seeds 1, 10 and 21,
    the forms tie on the objective and HiGHS returns a different
    optimal set per form.
    """

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workload", ["adpcm", "g721", "mpeg"])
    def test_same_sets_and_objectives_as_paper_form(self, workload,
                                                    seed):
        runner = StageRunner(store=ArtifactStore())
        _, bench = make_workbench(workload, 1.0, seed, runner=runner)
        graph = bench.conflict_graph
        for size in get_workload(workload).spm_sizes:
            energy = bench.spm_energy_model(size)
            reduced, location = CasaAllocator().build_model(
                graph, size, energy)
            paper, paper_location = paper_form(graph, size, energy)
            assert reduced.num_constraints == len(graph.edges()) + 1
            assert paper.num_variables == reduced.num_variables
            got, want = reduced.solve(), paper.solve()
            assert got.status is want.status is SolveStatus.OPTIMAL
            assert got.objective == pytest.approx(want.objective,
                                                  rel=1e-9), size
            resident = {name for name, var in location.items()
                        if got.binary_value(var) == 0}
            assert resident == {name for name, var in paper_location.items()
                                if want.binary_value(var) == 0}, size
            # ... and the objective is the energy model's own value.
            assert got.objective == pytest.approx(
                graph.predicted_energy(resident, energy), rel=1e-9), size


def all_cached(model):
    """The point that keeps every object cached: each location ``l``
    and product ``L`` at 1, no scratchpad assignment ``a`` and no
    copy-in ``c``."""
    return {var: 0.0 if var.name.startswith(("a[", "c[")) else 1.0
            for var in model.variables}


class TestAllCachedPoint:
    """Keeping every object cached satisfies every constraint of each
    CASA-family ILP; HiGHS finds that point at once, which is why
    ``Model.solve`` runs no feasibility-jump heuristic."""

    @pytest.fixture(scope="class")
    def bench(self):
        runner = StageRunner(store=ArtifactStore())
        return make_workbench("adpcm", 1.0, 0, runner=runner)[1]

    @pytest.fixture
    def solved(self, monkeypatch):
        models = []
        real_solve = Model.solve

        def recording_solve(model, *args, **kwargs):
            models.append(model)
            return real_solve(model, *args, **kwargs)

        monkeypatch.setattr(Model, "solve", recording_solve)
        return models

    def allocate(self, kind, bench, size):
        graph = bench.conflict_graph
        energy = bench.spm_energy_model(size)
        if kind == "casa":
            CasaAllocator().allocate(graph, size, energy)
        elif kind == "multi-spm":
            MultiScratchpadAllocator(
                [ScratchpadSpec("s0", size // 2),
                 ScratchpadSpec("s1", size // 2)]
            ).allocate(graph, energy=energy)
        elif kind == "unified":
            data = make_graph(
                [("table", 900, 64), ("buffer", 2000, 256)],
                [("table", "buffer", 50), ("buffer", "table", 20)],
            )
            UnifiedCasaAllocator().allocate(graph, energy, data, energy,
                                            size)
        else:
            bench.run_overlay(size)

    @pytest.mark.parametrize("kind", ["casa", "multi-spm", "unified",
                                      "overlay"])
    def test_all_cached_point_is_feasible(self, kind, bench, solved):
        self.allocate(kind, bench, 128)
        assert len(solved) == 1
        model = solved[0]
        assert model.name == ("casa" if kind == "casa"
                              else f"casa-{kind}")
        assert any(var.name.startswith("L") for var in model.variables)
        # A 0/1 model, so ``Model.solve`` turns the jump off on it.
        assert all(var.lower >= 0.0 and var.upper <= 1.0
                   for var in model.variables)
        assert model.is_feasible(all_cached(model))
        # Not vacuous: putting every object in the scratchpad instead
        # overflows it.
        everything = {var: 1.0 - value
                      for var, value in all_cached(model).items()}
        assert not model.is_feasible(everything)


class TestPredictedEnergy:
    """``Allocation.predicted_energy`` is the energy model evaluated at
    the rounded resident set, not the solver's objective over its raw
    continuous products ``L``."""

    @staticmethod
    def solving(monkeypatch, noise):
        """Patch ``Model.solve`` to move every continuous value by
        *noise* towards the middle of [0, 1] (as HiGHS's own noise
        does) and re-evaluate the objective; returns the objectives
        seen, in call order."""
        objectives = []
        real_solve = Model.solve

        def noisy_solve(model, *args, **kwargs):
            result = real_solve(model, *args, **kwargs)
            values = {
                var: value if var.is_integer
                else value + (noise if value < 0.5 else -noise)
                for var, value in result.values.items()
            }
            objectives.append(model.objective.evaluate(values))
            return dataclasses.replace(result, values=values,
                                       objective=objectives[-1])

        monkeypatch.setattr(Model, "solve", noisy_solve)
        return objectives

    def test_solver_noise_leaves_the_prediction_bit_identical(
            self, monkeypatch):
        runner = StageRunner(store=ArtifactStore())
        _, bench = make_workbench("adpcm", 1.0, 0, runner=runner)
        graph = bench.conflict_graph
        moved = 0
        for size in get_workload("adpcm").spm_sizes:
            energy = bench.spm_energy_model(size)
            with monkeypatch.context() as patch:
                clean_objective = self.solving(patch, 0.0)
                clean = CasaAllocator().allocate(graph, size, energy)
            with monkeypatch.context() as patch:
                noisy_objective = self.solving(patch, 2e-16)
                noisy = CasaAllocator().allocate(graph, size, energy)
            assert noisy.spm_resident == clean.spm_resident, size
            assert noisy.predicted_energy == clean.predicted_energy, size
            moved += noisy_objective != clean_objective
        # Not vacuous: the noise does reach the solver's objective.
        assert moved

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workload", ["adpcm", "g721", "mpeg"])
    def test_prediction_is_the_ilp_objective_on_table1(
            self, monkeypatch, workload, seed):
        runner = StageRunner(store=ArtifactStore())
        _, bench = make_workbench(workload, 1.0, seed, runner=runner)
        objectives = self.solving(monkeypatch, 0.0)
        for size in get_workload(workload).spm_sizes:
            allocation = CasaAllocator().allocate(
                bench.conflict_graph, size, bench.spm_energy_model(size))
            assert allocation.predicted_energy == pytest.approx(
                objectives[-1], rel=1e-9), size

    def test_cache_blind_prediction_is_its_own_objective(
            self, monkeypatch):
        graph = make_graph(
            [("A", 300, 64), ("B", 300, 64), ("D", 400, 64)],
            [("A", "B", 500), ("B", "A", 500)],
        )
        graph.node("A").self_misses = 7
        objectives = self.solving(monkeypatch, 0.0)
        allocation = CasaAllocator(
            CasaConfig(conflict_term=False)).allocate(graph, 64, MODEL)
        assert allocation.predicted_energy == pytest.approx(
            objectives[-1], rel=1e-12)
        # ... which charges none of the conflict or self misses.
        assert allocation.predicted_energy < graph.predicted_energy(
            set(allocation.spm_resident), MODEL)
