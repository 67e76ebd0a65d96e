"""Grid pipeline: single-pass replay and grid chunks.

:func:`~repro.memory.kernel.grid.simulate_grid` must match
per-configuration simulation bit for bit; a
:class:`~repro.engine.grid.GridChunk` over a capacity axis must
reproduce one-size chunks' reports and allocations byte for byte, and
its capacity steps share the per-size ``result`` artifacts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Workbench, WorkbenchConfig
from repro.engine.grid import CHUNK_ALGORITHMS, GridChunk, \
    evaluate_chunk
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore, set_default_store
from repro.errors import ConfigurationError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, simulate
from repro.memory.kernel import SweepGrid, compile_stream, \
    report_differences, simulate_grid
from repro.traces.layout import LinkedImage
from repro.traces.tracegen import TraceGenConfig
from repro.workloads.synthetic import random_program

LINE_SIZES = (8, 16, 32)
ASSOCIATIVITIES = (1, 2, 4)


def lru_axis(spm_size: int = 0) -> SweepGrid:
    """The satellite grid: line {8,16,32} x assoc {1,2,4}, all LRU."""
    return SweepGrid.of(
        HierarchyConfig(
            cache=CacheConfig(
                size=line_size * associativity * 4,
                line_size=line_size,
                associativity=associativity,
            ),
            spm_size=spm_size,
        )
        for line_size in LINE_SIZES
        for associativity in ASSOCIATIVITIES
    )


class TestGridOnRandomPrograms:
    """simulate_grid == per-config vector == reference, property-based."""

    @given(st.integers(0, 60))
    @settings(max_examples=10, deadline=None)
    def test_grid_matches_vector_and_reference(self, seed):
        program = random_program(seed, num_functions=3, max_depth=2)
        bench = Workbench(program, WorkbenchConfig(
            cache=CacheConfig(size=64, line_size=16, associativity=1),
            tracegen=TraceGenConfig(line_size=16, max_trace_size=32),
        ))
        config = bench.config
        image = LinkedImage(bench.program, bench.memory_objects)
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=config.spm_base)
        grid = lru_axis()
        covered, fallback = grid.coverage()
        assert covered == len(grid) and fallback == 0
        from_grid = simulate_grid(stream, grid,
                                  spm_base=config.spm_base)
        for hierarchy, grid_report in zip(grid, from_grid):
            reference = simulate(
                image, hierarchy, bench.block_sequence,
                spm_base=config.spm_base, backend="reference",
            )
            vector = simulate(
                image, hierarchy, bench.block_sequence,
                spm_base=config.spm_base, backend="vector",
                stream=stream,
            )
            assert not report_differences(reference, grid_report)
            assert not report_differences(reference, vector)


class TestPartition:
    """Configs the single-pass scan cannot model fall back per config."""

    def test_loop_cache_config_falls_back(self):
        from repro.memory.loopcache import LoopCacheConfig

        cache = CacheConfig(size=128, line_size=16, associativity=2)
        grid = SweepGrid.of([
            HierarchyConfig(cache=cache),
            HierarchyConfig(cache=cache,
                            loop_cache=LoopCacheConfig(size=256)),
        ])
        groups, plain, fallback = grid.partition()
        assert groups == {(16, cache.num_sets): [0]}
        assert plain == []
        assert fallback == [1]

    def test_loop_cache_config_matches_reference(self, tiny_workbench):
        from repro.memory.loopcache import LoopCacheConfig

        bench = tiny_workbench
        image = LinkedImage(bench.program, bench.memory_objects)
        hierarchy = HierarchyConfig(
            cache=bench.config.cache,
            loop_cache=LoopCacheConfig(size=256),
        )
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=bench.config.spm_base)
        [from_grid] = simulate_grid(stream, SweepGrid.of([hierarchy]),
                                    spm_base=bench.config.spm_base)
        reference = simulate(image, hierarchy, bench.block_sequence,
                             spm_base=bench.config.spm_base,
                             backend="reference")
        assert reference.lc_controller_checks == \
            reference.total_fetches
        assert not report_differences(reference, from_grid)


def fresh_workbench():
    """The tiny workbench on its own fresh in-memory store."""
    runner = StageRunner(store=ArtifactStore())
    _, bench = make_workbench("tiny", 0.2, 0, runner=runner)
    return runner, bench


class TestRunGrid:
    """Workbench.run_grid == the per-size run_* entry points."""

    def test_matches_per_size_runs(self):
        sizes = (64, 128)
        for algorithm in ("casa", "steinke", "greedy"):
            # Separate stores, so both sides are real computations
            # rather than one serving the other's result artifacts.
            _, grid_bench = fresh_workbench()
            grid_results = grid_bench.run_grid(algorithm, sizes)
            _, single_bench = fresh_workbench()
            run = getattr(single_bench, f"run_{algorithm}")
            for size, from_grid in zip(sizes, grid_results):
                single = run(size)
                assert not report_differences(single.report,
                                              from_grid.report)
                assert single.allocation.spm_resident == \
                    from_grid.allocation.spm_resident
                assert single.energy.total == from_grid.energy.total

    def test_preserves_requested_order(self, tiny_workbench):
        ascending = tiny_workbench.run_grid("greedy", (64, 128))
        descending = tiny_workbench.run_grid("greedy", (128, 64))
        assert [r.allocation.capacity for r in descending] == [128, 64]
        assert descending[1].energy.total == ascending[0].energy.total

    def test_rejects_unknown_algorithm(self, tiny_workbench):
        with pytest.raises(ConfigurationError):
            tiny_workbench.run_grid("nonsense", (64,))


class TestSharedResultKey:
    """Grid steps and per-size runs share one ``result`` entry."""

    def _assert_served(self, runner, grid, single):
        grid()
        before = runner.record.stages["result"]
        single()
        after = runner.record.stages["result"]
        assert after.hits == before.hits + 1
        assert after.computed == before.computed

    def test_casa_step_serves_run_casa(self):
        runner, bench = fresh_workbench()
        self._assert_served(
            runner,
            lambda: bench.run_grid("casa", (64, 128)),
            lambda: bench.run_casa(128),
        )

    def test_ross_step_serves_run_ross(self):
        runner, bench = fresh_workbench()
        self._assert_served(
            runner,
            lambda: bench.run_grid("ross", (64, 128), max_regions=2),
            lambda: bench.run_ross(128, max_regions=2),
        )


class TestGridChunks:
    """GridChunk scheduling reproduces the per-point path exactly."""

    def _fresh(self, work):
        previous = set_default_store(ArtifactStore())
        try:
            return work()
        finally:
            set_default_store(previous)

    def test_chunk_matches_points(self):
        chunk = GridChunk(workload="tiny", spm_sizes=(64, 128),
                          algorithm="casa", scale=0.2)
        from_chunk = self._fresh(lambda: evaluate_chunk(chunk))
        from_points = self._fresh(lambda: [
            evaluate_chunk(GridChunk(workload="tiny", spm_sizes=(size,),
                                     algorithm="casa", scale=0.2))[0]
            for size in (64, 128)
        ])
        assert len(from_chunk) == len(from_points)
        for single, grid_result in zip(from_points, from_chunk):
            assert not report_differences(single.report,
                                          grid_result.report)
            assert single.allocation.spm_resident == \
                grid_result.allocation.spm_resident
            assert single.energy.total == grid_result.energy.total

    def test_chunk_rejects_unknown_algorithm(self):
        assert "casa" in CHUNK_ALGORITHMS
        with pytest.raises(ConfigurationError):
            evaluate_chunk(GridChunk(workload="tiny",
                                     spm_sizes=(64,),
                                     algorithm="nonsense"))

    def test_healed_chunk_retries_as_one_unit(self):
        from repro.resilience.faults import FaultPlan, set_fault_plan
        from repro.resilience.healing import map_points_healed

        chunk = GridChunk(workload="tiny", spm_sizes=(64, 128),
                          algorithm="greedy", scale=0.2)
        clean = self._fresh(lambda: map_points_healed([chunk]))
        plan = FaultPlan.from_spec("worker.exec:error@nth=1")
        previous_plan = set_fault_plan(plan)
        try:
            healed = self._fresh(
                lambda: map_points_healed([chunk])
            )
        finally:
            set_fault_plan(previous_plan)
        outcome = healed.outcomes[0]
        assert outcome.status in ("ok", "retried")
        assert outcome.attempts == 2
        assert "@[64+128]" in outcome.describe()
        for expected, actual in zip(clean.results[0],
                                    outcome.result):
            assert expected.energy.total == actual.energy.total


class TestVerifyGridGate:
    """The differential gate passes, and zero coverage fails it."""

    def test_gate_passes_on_tiny(self):
        from repro.evaluation.verify_grid import verify_grid

        report = verify_grid(workloads=("tiny",), scale=0.2)
        assert report.ok, report.render()

    def test_zero_coverage_grid_fails(self):
        from repro.evaluation.verify_grid import _coverage_case

        fifo_only = SweepGrid.of([HierarchyConfig(
            cache=CacheConfig(size=128, line_size=16,
                              associativity=2, policy="fifo"),
        )])
        case = _coverage_case(fifo_only)
        assert not case.ok
        assert "zero-coverage" in case.differences[0]

    def test_allocation_comparison_reports_solver_nodes(self):
        from dataclasses import replace

        from repro.core.allocation import Allocation
        from repro.evaluation.verify_grid import \
            allocation_differences

        base = Allocation(algorithm="casa",
                          spm_resident=frozenset({"a"}),
                          predicted_energy=1.0, solver_nodes=7,
                          solver_status="optimal", capacity=64,
                          used_bytes=8)
        assert not allocation_differences(base, replace(base))
        assert allocation_differences(
            base, replace(base, solver_nodes=3)) == [
            "allocation.solver_nodes: reference 7 != kernel 3"]
        assert allocation_differences(
            base, replace(base, spm_resident=frozenset()))
