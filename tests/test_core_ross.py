"""Tests for the Ross loop-cache allocator."""

import pytest

from repro.core.allocation import AllocationContext
from repro.core.ross import RossLoopCacheAllocator
from repro.memory.loopcache import LoopCacheConfig
from repro.program.cfg import ControlFlowGraph
from repro.program.executor import execute_program
from repro.traces.layout import LinkedImage
from repro.traces.tracegen import TraceGenConfig, generate_traces
from repro.core.conflict_graph import ConflictGraph
from repro.memory.hierarchy import HierarchyConfig, simulate
from repro.memory.cache import CacheConfig
from repro.workloads import get_workload

from tests.conftest import make_loop_program


def setup(program, cache=None, min_ft=1):
    execution = execute_program(program)
    mos = generate_traces(
        program, execution.profile,
        TraceGenConfig(line_size=16, max_trace_size=1 << 20,
                       min_fallthrough_count=min_ft),
    )
    image = LinkedImage(program, mos)
    cache_config = cache or CacheConfig(size=128, line_size=16,
                                        associativity=1)
    report = simulate(image, HierarchyConfig(cache=cache_config),
                      execution.block_sequence)
    graph = ConflictGraph.from_simulation(mos, report)
    return program, mos, image, graph


class TestCandidates:
    def test_loop_and_function_candidates(self):
        # split every block into its own trace so the loop region's
        # span differs from the whole-function span
        program, mos, image, graph = setup(make_loop_program(trip=50),
                                           min_ft=10**9)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=4096, max_regions=4))
        candidates = allocator.candidate_regions(program, mos, image,
                                                 graph)
        names = {c.region.name for c in candidates}
        assert any(name.startswith("loop:") for name in names)
        assert any(name.startswith("func:") for name in names)

    def test_oversized_regions_excluded(self):
        program, mos, image, graph = setup(make_loop_program(trip=50))
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=16, max_regions=4))
        candidates = allocator.candidate_regions(program, mos, image,
                                                 graph)
        assert all(c.region.size <= 16 for c in candidates)

    def test_never_executed_regions_excluded(self):
        workload = get_workload("adpcm", scale=0.05)
        program, mos, image, graph = setup(
            workload.program, cache=workload.cache)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=4096, max_regions=8))
        candidates = allocator.candidate_regions(program, mos, image,
                                                 graph)
        assert all(c.fetches > 0 for c in candidates)

    def test_candidates_pinned_and_loops_computed_once(self, monkeypatch):
        workload = get_workload("adpcm", scale=0.05)
        program, mos, image, graph = setup(
            workload.program, cache=workload.cache)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=256, max_regions=4))
        expected = [
            ("loop:main.b1", 64, 96, 549),
            ("func:main", 0, 160, 563),
            ("loop:adpcm_init.b1", 160, 176, 58),
            ("func:adpcm_init", 160, 240, 58),
            ("func:adpcm_coder", 400, 208, 1643),
            ("func:adpcm_decoder", 608, 176, 1374),
            ("loop:quantize_sample.b1", 784, 80, 1710),
            ("func:step_update", 864, 96, 786),
        ]

        def regions():
            return [(c.region.name, c.region.start, c.region.size,
                     c.fetches)
                    for c in allocator.candidate_regions(
                        program, mos, image, graph)]

        assert regions() == expected

        # Later allocations reuse the program's loops.
        def rebuilt(self):
            raise AssertionError("natural loops recomputed")

        monkeypatch.setattr(ControlFlowGraph, "natural_loops", rebuilt)
        assert regions() == expected


class TestAllocation:
    def test_respects_region_table_limit(self):
        workload = get_workload("g721", scale=0.05)
        program, mos, image, graph = setup(
            workload.program, cache=workload.cache)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=4096, max_regions=2))
        allocation = allocator.allocate(
            graph, context=AllocationContext(
                program=program, memory_objects=mos, image=image))
        assert len(allocation.loop_regions) <= 2

    def test_respects_capacity(self):
        workload = get_workload("g721", scale=0.05)
        program, mos, image, graph = setup(
            workload.program, cache=workload.cache)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=256, max_regions=4))
        allocation = allocator.allocate(
            graph, context=AllocationContext(
                program=program, memory_objects=mos, image=image))
        assert allocation.used_bytes <= 256
        assert allocation.capacity == 256

    def test_no_overlapping_regions(self):
        workload = get_workload("adpcm", scale=0.05)
        program, mos, image, graph = setup(
            workload.program, cache=workload.cache)
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=1024, max_regions=4))
        allocation = allocator.allocate(
            graph, context=AllocationContext(
                program=program, memory_objects=mos, image=image))
        regions = list(allocation.loop_regions)
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert a.end <= b.start or b.end <= a.start

    def test_greedy_prefers_denser_regions(self):
        program, mos, image, graph = setup(make_loop_program(trip=100))
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=4096, max_regions=1))
        allocation = allocator.allocate(
            graph, context=AllocationContext(
                program=program, memory_objects=mos, image=image))
        assert len(allocation.loop_regions) == 1
        # the loop body is the densest candidate
        assert allocation.loop_regions[0].name.startswith("loop:")

    def test_metadata(self):
        program, mos, image, graph = setup(make_loop_program())
        allocator = RossLoopCacheAllocator(
            LoopCacheConfig(size=1024, max_regions=4))
        allocation = allocator.allocate(
            graph, context=AllocationContext(
                program=program, memory_objects=mos, image=image))
        assert allocation.algorithm == "ross"
        assert allocation.spm_resident == frozenset()
        assert "regions" in allocation.describe()
