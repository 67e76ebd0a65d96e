"""Reference-vs-vector equivalence over the supported design space.

The vector kernel's contract is bit-identical
:class:`~repro.memory.stats.SimulationReport`\\ s.  These tests sweep
the kernel's whole supported corner — associativity x policy x line
size, with and without a scratchpad — on two committed workloads and
compare every report field, including dict/Counter insertion orders,
via the differential harness's strict comparator.
"""

import pytest

from repro.errors import ConfigurationError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, simulate
from repro.memory.loopcache import LoopCacheConfig, LoopRegion
from repro.memory.kernel import report_differences
from repro.obs.events import EventRecorder, set_recorder
from repro.traces.layout import LinkedImage, Placement

ASSOCIATIVITIES = (1, 2, 4)
POLICIES = ("lru", "fifo")
LINE_SIZES = (8, 16, 32)

GRID = [
    pytest.param(line, assoc, policy,
                 id=f"line{line}-assoc{assoc}-{policy}")
    for line in LINE_SIZES
    for assoc in ASSOCIATIVITIES
    for policy in POLICIES
]


def images_of(bench, spm_size=64):
    """(label, image, spm_size) pairs: cache-only and scratchpad."""
    def build(resident, size):
        return LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=resident, spm_size=size,
            placement=Placement.COPY,
            main_base=bench.config.main_base,
            spm_base=bench.config.spm_base,
        )

    resident = set()
    used = 0
    for mo in bench.memory_objects:
        if used + mo.unpadded_size <= spm_size:
            resident.add(mo.name)
            used += mo.unpadded_size
    pairs = [("baseline", build(frozenset(), 0), 0)]
    if resident:
        pairs.append(("spm", build(frozenset(resident), spm_size),
                      spm_size))
    return pairs


def both_backends(bench, hierarchy, spm_size, image, loop_regions=None):
    """Simulate one configuration through both backends."""
    reference = simulate(image, hierarchy, bench.block_sequence,
                         spm_base=bench.config.spm_base,
                         loop_regions=loop_regions,
                         backend="reference")
    vector = simulate(image, hierarchy, bench.block_sequence,
                      spm_base=bench.config.spm_base,
                      loop_regions=loop_regions,
                      backend="vector")
    return reference, vector


@pytest.mark.parametrize("line_size,associativity,policy", GRID)
def test_tiny_equivalence(tiny_workbench, line_size, associativity,
                          policy):
    cache = CacheConfig(size=line_size * associativity * 4,
                        line_size=line_size,
                        associativity=associativity, policy=policy)
    for label, image, spm_size in images_of(tiny_workbench):
        hierarchy = HierarchyConfig(cache=cache, spm_size=spm_size)
        reference, vector = both_backends(tiny_workbench, hierarchy,
                                          spm_size, image)
        assert report_differences(reference, vector) == [], label


@pytest.mark.parametrize("line_size,associativity,policy", GRID)
def test_adpcm_equivalence(adpcm_workbench, line_size, associativity,
                           policy):
    cache = CacheConfig(size=line_size * associativity * 4,
                        line_size=line_size,
                        associativity=associativity, policy=policy)
    for label, image, spm_size in images_of(adpcm_workbench):
        hierarchy = HierarchyConfig(cache=cache, spm_size=spm_size)
        reference, vector = both_backends(adpcm_workbench, hierarchy,
                                          spm_size, image)
        assert report_differences(reference, vector) == [], label


class TestTwoLevel:
    def test_l2_equivalence(self, adpcm_workbench):
        hierarchy = HierarchyConfig(
            cache=CacheConfig(size=128, line_size=16, associativity=2),
            l2_cache=CacheConfig(size=512, line_size=16,
                                 associativity=4),
        )
        label, image, _ = images_of(adpcm_workbench)[0]
        reference, vector = both_backends(adpcm_workbench, hierarchy,
                                          0, image)
        assert report_differences(reference, vector) == []
        assert vector.l2_hits == reference.l2_hits
        assert vector.l2_misses == reference.l2_misses


def ross_regions(bench, size):
    """Ross's preloaded regions for a loop cache of *size* bytes."""
    from repro.core.ross import RossLoopCacheAllocator

    allocation = RossLoopCacheAllocator(
        LoopCacheConfig(size=size, max_regions=4)
    ).allocate(bench.conflict_graph, context=bench.allocation_context())
    return list(allocation.loop_regions)


class TestLoopCache:
    """Loop-cache hierarchies replay on the kernel, bit for bit."""

    @pytest.mark.parametrize("associativity,policy", [
        (1, "lru"), (2, "lru"), (2, "fifo"), (2, "lfu"), (2, "2q"),
    ])
    def test_ross_regions_match_reference(self, adpcm_workbench,
                                          associativity, policy):
        image = images_of(adpcm_workbench)[0][1]
        cache = CacheConfig(size=16 * associativity * 4, line_size=16,
                            associativity=associativity, policy=policy)
        for size in (64, 128, 256):
            hierarchy = HierarchyConfig(
                cache=cache,
                loop_cache=LoopCacheConfig(size=size, max_regions=4),
            )
            regions = ross_regions(adpcm_workbench, size)
            reference, vector = both_backends(
                adpcm_workbench, hierarchy, 0, image,
                loop_regions=regions,
            )
            assert reference.lc_accesses > 0
            assert report_differences(reference, vector) == [], size

    @pytest.mark.parametrize("cache", [
        CacheConfig(size=64, line_size=16, associativity=1),
        CacheConfig(size=128, line_size=16, associativity=2,
                    policy="lfu"),
        CacheConfig(size=128, line_size=16, associativity=2,
                    policy="2q"),
        None,
    ], ids=["dm", "lfu", "2q", "cacheless"])
    def test_regions_splitting_segments_match_reference(
            self, adpcm_workbench, cache):
        from repro.memory.kernel import compile_stream
        from repro.memory.kernel.vector import _loop_cache_words
        from repro.memory.kernel.verify import synthetic_regions

        image = images_of(adpcm_workbench)[0][1]
        stream = compile_stream(image, adpcm_workbench.block_sequence)
        regions = synthetic_regions(stream, seed=1)
        served = _loop_cache_words(stream, regions)
        assert ((served > 0) & (served < stream.seg_words)).any()

        hierarchy = HierarchyConfig(
            cache=cache,
            loop_cache=LoopCacheConfig(size=1 << 16, max_regions=4),
        )
        reference, vector = both_backends(
            adpcm_workbench, hierarchy, 0, image, loop_regions=regions,
        )
        assert report_differences(reference, vector) == []

    def test_regions_without_loop_cache_stay_an_error(
            self, tiny_workbench):
        image = images_of(tiny_workbench)[0][1]
        with pytest.raises(ConfigurationError, match="loop"):
            simulate(image, HierarchyConfig(),
                     tiny_workbench.block_sequence,
                     loop_regions=[LoopRegion("r", 0, 16)],
                     backend="vector")


class TestDispatch:
    def test_vector_rejects_random_policy(self, tiny_workbench):
        hierarchy = HierarchyConfig(cache=CacheConfig(
            size=128, line_size=16, associativity=2, policy="random",
        ))
        image = images_of(tiny_workbench)[0][1]
        with pytest.raises(ConfigurationError, match="random"):
            simulate(image, hierarchy, tiny_workbench.block_sequence,
                     backend="vector")

    def test_auto_falls_back_on_random_policy(self, tiny_workbench):
        hierarchy = HierarchyConfig(cache=CacheConfig(
            size=128, line_size=16, associativity=2, policy="random",
        ))
        image = images_of(tiny_workbench)[0][1]
        report = simulate(image, hierarchy,
                          tiny_workbench.block_sequence,
                          backend="auto")
        assert report.total_fetches > 0


class TestEventRecorderParity:
    """Event recording degrades to the reference interpreter.

    The vector kernel cannot emit per-probe events, so with a
    recorder active the ``vector`` backend falls back — and the
    recorded event counters must be exactly those of an explicit
    reference run.
    """

    @staticmethod
    def record(bench, backend):
        hierarchy = HierarchyConfig(cache=CacheConfig(
            size=128, line_size=16, associativity=2,
        ))
        image = images_of(bench)[0][1]
        recorder = EventRecorder()
        previous = set_recorder(recorder)
        try:
            report = simulate(image, hierarchy, bench.block_sequence,
                              backend=backend)
        finally:
            set_recorder(previous)
        return report, recorder

    def test_counters_match_reference(self, tiny_workbench):
        ref_report, ref_recorder = self.record(tiny_workbench,
                                               "reference")
        vec_report, vec_recorder = self.record(tiny_workbench,
                                               "vector")
        assert vec_recorder.total_events == ref_recorder.total_events
        assert dict(vec_recorder.counts) == dict(ref_recorder.counts)
        assert report_differences(ref_report, vec_report) == []

    def test_without_recorder_vector_runs(self, tiny_workbench):
        hierarchy = HierarchyConfig(cache=CacheConfig(
            size=128, line_size=16, associativity=2,
        ))
        image = images_of(tiny_workbench)[0][1]
        report = simulate(image, hierarchy,
                          tiny_workbench.block_sequence,
                          backend="vector")
        assert report.total_fetches > 0
