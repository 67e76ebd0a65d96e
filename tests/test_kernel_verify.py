"""Tests for repro.memory.kernel.verify (differential harness)."""

import random

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.kernel import report_differences, verify_kernel
from repro.memory.kernel.verify import (
    VerifyCase,
    VerifyReport,
    random_cache_config,
)
from repro.memory.stats import MemoryObjectStats, SimulationReport


def small_report():
    report = SimulationReport(num_block_executions=3)
    report.mo_stats["A"] = MemoryObjectStats(
        "A", fetches=10, cache_hits=8, cache_misses=2,
        compulsory_misses=1,
    )
    report.mo_stats["B"] = MemoryObjectStats(
        "B", fetches=4, cache_hits=3, cache_misses=1,
        compulsory_misses=1,
    )
    report.conflict_misses[("A", "B")] = 1
    report.main_memory_words = 12
    return report


class TestReportDifferences:
    def test_identical_reports_have_none(self):
        assert report_differences(small_report(), small_report()) == []

    def test_counter_value_difference_caught(self):
        other = small_report()
        other.mo_stats["A"].cache_hits = 7
        diffs = report_differences(small_report(), other)
        assert any("cache_hits" in d for d in diffs)

    def test_key_order_difference_caught(self):
        other = SimulationReport(num_block_executions=3)
        base = small_report()
        # Same content, reversed mo_stats insertion order.
        other.mo_stats["B"] = base.mo_stats["B"]
        other.mo_stats["A"] = base.mo_stats["A"]
        other.conflict_misses = base.conflict_misses
        other.main_memory_words = base.main_memory_words
        diffs = report_differences(base, other)
        assert any("mo_stats keys" in d for d in diffs)

    def test_conflict_order_difference_caught(self):
        base = small_report()
        base.conflict_misses[("B", "A")] = 2
        other = small_report()
        other.conflict_misses[("B", "A")] = 2
        other.conflict_misses = type(other.conflict_misses)(
            dict(reversed(list(other.conflict_misses.items())))
        )
        diffs = report_differences(base, other)
        assert any("conflict_misses" in d for d in diffs)

    def test_scalar_difference_caught(self):
        other = small_report()
        other.main_memory_words = 13
        diffs = report_differences(small_report(), other)
        assert any("main_memory_words" in d for d in diffs)


class TestRandomConfig:
    def test_always_valid(self):
        rng = random.Random(7)
        for _ in range(200):
            config = random_cache_config(rng)
            assert isinstance(config, CacheConfig)
            assert config.policy in ("lru", "fifo", "lfu", "2q")
            assert config.num_sets >= 1

    def test_deterministic_for_a_seed(self):
        assert random_cache_config(random.Random(3)) == \
            random_cache_config(random.Random(3))


class TestVerifyKernel:
    @pytest.fixture(scope="class")
    def report(self):
        return verify_kernel(workloads=("tiny",), trials=8,
                             scale=1.0, seed=0)

    def test_passes_on_tiny(self, report):
        assert report.ok, report.render()

    def test_covers_all_four_kinds(self, report):
        kinds = {case.kind for case in report.cases}
        assert kinds == {"probe", "workload", "loop-cache", "audit"}

    def test_loop_cache_cases_cover_ross_and_split_regions(self, report):
        labels = {case.description.split()[0] for case in report.cases
                  if case.kind == "loop-cache"}
        assert labels == {"tiny/ross@64", "tiny/ross@128",
                          "tiny/synthetic(seed=0)"}
        assert any(case.description.endswith("cache-less")
                   for case in report.cases)

    def test_render_mentions_coverage(self, report):
        text = report.render()
        assert "OK" in text
        assert "probe" in text and "workload" in text

    def test_failure_render_lists_differences(self):
        failing = VerifyReport((
            VerifyCase("probe", "seed=1", ("hits differ",)),
            VerifyCase("workload", "tiny", ()),
        ))
        assert not failing.ok
        assert len(failing.failures) == 1
        text = failing.render()
        assert "FAILING" in text
        assert "hits differ" in text


class TestSyntheticRegions:
    def test_regions_split_segments_and_never_overlap(self,
                                                      tiny_workbench):
        from repro.memory.kernel import compile_stream
        from repro.memory.kernel.vector import _loop_cache_words
        from repro.memory.kernel.verify import synthetic_regions
        from repro.traces.layout import LinkedImage

        image = LinkedImage(tiny_workbench.program,
                            tiny_workbench.memory_objects)
        stream = compile_stream(image, tiny_workbench.block_sequence)
        regions = synthetic_regions(stream, seed=0)
        assert regions == synthetic_regions(stream, seed=0)
        assert all(r.start % 4 == 0 and r.size % 4 == 0
                   for r in regions)
        ordered = sorted(regions, key=lambda r: r.start)
        assert all(a.end <= b.start for a, b in zip(ordered, ordered[1:]))
        served = _loop_cache_words(stream, regions)
        assert ((served > 0) & (served < stream.seg_words)).any()
