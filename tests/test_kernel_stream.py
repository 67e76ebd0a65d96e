"""Tests for repro.memory.kernel.stream (fetch-stream compilation)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.pipeline import Workbench, WorkbenchConfig
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore
from repro.errors import LayoutError
from repro.memory.kernel import FetchStream, compile_stream
from repro.memory.kernel.stream import narrow_keys
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.traces.layout import SPM_BASE, LinkedImage, Placement
from repro.traces.tracegen import TraceGenConfig, generate_traces
from repro.workloads.registry import available_workloads, get_workload


def baseline_image(bench):
    """Cache-only image of a profiled workbench."""
    return LinkedImage(
        bench.program,
        bench.memory_objects,
        spm_resident=frozenset(),
        spm_size=0,
        placement=Placement.COPY,
        main_base=bench.config.main_base,
        spm_base=bench.config.spm_base,
    )


def synthetic_stream(addr: np.ndarray) -> FetchStream:
    """A stream of 3-word segments at *addr*, none on the scratchpad."""
    count = addr.shape[0]
    return FetchStream(
        mo_names=("a", "b"),
        seg_mo=(np.arange(count) % 2).astype(np.int32),
        seg_addr=addr.astype(np.int64),
        seg_words=np.full(count, 3, dtype=np.int64),
        seg_on_spm=np.zeros(count, dtype=bool),
        num_blocks=count,
        spm_base=SPM_BASE,
    )


def assert_line_order(probes):
    """The probe expansion's shared sort matches a plain int64 sort."""
    expected = np.argsort(probes.line, kind="stable")
    assert np.array_equal(probes.line_order, expected)
    first = np.zeros(len(probes), dtype=bool)
    first[np.unique(probes.line, return_index=True)[1]] = True
    assert np.array_equal(probes.first, first)


class TestNarrowKeys:
    @pytest.mark.parametrize("span, dtype", [
        (0, np.uint8), (255, np.uint8), (256, np.uint16),
        ((1 << 16) - 1, np.uint16),
    ])
    def test_narrowest_unsigned_dtype_holding_the_span(self, span, dtype):
        values = np.array([1000 + span, 1000, 1000 + span // 2],
                          dtype=np.int64)
        keys = narrow_keys(values)
        assert keys.dtype == dtype
        assert keys.tolist() == [span, 0, span // 2]

    def test_wide_span_keeps_int64_values(self):
        values = np.array([5, 5 + (1 << 16)], dtype=np.int64)
        assert narrow_keys(values) is values

    def test_order_and_equality_preserved(self):
        values = np.random.default_rng(0).integers(-300, 300, size=2000)
        keys = narrow_keys(values)
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              np.argsort(values, kind="stable"))
        assert np.array_equal(keys[1:] == keys[:-1],
                              values[1:] == values[:-1])


class TestCompile:
    def test_total_words_match_reference_fetches(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        report = tiny_workbench.baseline_report
        assert stream.total_words == report.total_fetches
        assert stream.num_blocks == report.num_block_executions

    def test_mo_first_seen_matches_report_order(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        names = [stream.mo_names[i] for i in stream.mo_first_seen()]
        assert names == list(tiny_workbench.baseline_report.mo_stats)

    def test_layouts_share_the_sequence_summaries(self, tiny_workbench):
        bench = tiny_workbench
        baseline = compile_stream(baseline_image(bench),
                                  bench.block_sequence)
        sequence = baseline.sequence
        resident = LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=frozenset({bench.memory_objects[0].name}),
            spm_size=128, placement=Placement.COPY,
            main_base=bench.config.main_base,
            spm_base=bench.config.spm_base,
        )
        other = sequence.link(resident)
        assert other.mo_fetches() is baseline.mo_fetches()
        assert other.mo_first_seen() == baseline.mo_first_seen()
        assert other.mo_first_seen() is not sequence._first_seen
        assert not baseline.mo_fetches().flags.writeable
        # A stream with no sequence computes the same summaries itself.
        own = dataclasses.replace(other, sequence=None)
        assert own.mo_first_seen() == sequence.mo_first_seen()
        assert np.array_equal(own.mo_fetches(), sequence.mo_fetches())
        report = bench.baseline_report
        assert {sequence.mo_names[i]: int(count) for i, count in
                enumerate(sequence.mo_fetches()) if count} == \
            {name: stats.fetches for name, stats in report.mo_stats.items()
             if stats.fetches}
        clone = pickle.loads(pickle.dumps(sequence))
        assert clone._first_seen is None and clone._fetches is None

    def test_spm_words_follow_residency(self, tiny_workbench):
        bench = tiny_workbench
        resident = frozenset({bench.memory_objects[0].name})
        image = LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=resident, spm_size=128,
            placement=Placement.COPY,
            main_base=bench.config.main_base,
            spm_base=bench.config.spm_base,
        )
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=bench.config.spm_base)
        assert stream.spm_words > 0
        assert stream.spm_words < stream.total_words

    def test_same_as(self, tiny_workbench):
        image = baseline_image(tiny_workbench)
        first = compile_stream(image, tiny_workbench.block_sequence)
        second = compile_stream(image, tiny_workbench.block_sequence)
        assert first.same_as(second)
        assert second.same_as(first)


class TestProbes:
    def test_memoised_per_line_size(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        assert stream.probes(16) is stream.probes(16)
        assert stream.probes(16) is not stream.probes(32)

    def test_probe_words_sum_to_stream_words(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        for line_size in (8, 16, 32):
            probes = stream.probes(line_size)
            assert int(probes.words.sum()) == stream.total_words

    def test_first_marks_every_line_once(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        probes = stream.probes(16)
        assert int(probes.first.sum()) == \
            np.unique(probes.line).shape[0]

    @pytest.mark.parametrize("name", available_workloads())
    def test_line_order_is_the_stable_argsort_of_lines(self, name):
        _, bench = make_workbench(name, seed=0, backend="vector")
        stream = compile_stream(baseline_image(bench),
                                bench.block_sequence)
        for line_size in (16, 32, 64):
            assert_line_order(stream.probes(line_size))

    def test_line_order_of_an_empty_stream(self):
        stream = synthetic_stream(np.zeros(0, dtype=np.int64))
        probes = stream.probes(16)
        assert len(probes) == 0
        assert_line_order(probes)

    def test_line_order_over_a_wide_line_span(self):
        # Lines 2**20 apart: the sort keys stay int64.
        rng = np.random.default_rng(3)
        addr = rng.integers(0, 1 << 24, size=5000) * 4
        addr[::7] = addr[0]  # repeated lines
        stream = synthetic_stream(addr)
        probes = stream.probes(16)
        assert int(probes.line.max() - probes.line.min()) >= 1 << 16
        assert_line_order(probes)

    def test_pickle_drops_probe_cache(self, tiny_workbench):
        stream = compile_stream(baseline_image(tiny_workbench),
                                tiny_workbench.block_sequence)
        stream.probes(16)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone._probe_cache == {}
        assert clone.same_as(stream)


class TestStreamArtifact:
    SIZES = (64, 128, 256, 512)

    def test_stream_stage_cached_across_evaluations(self):
        store = ArtifactStore()
        runner = StageRunner(store=store)
        _, bench = make_workbench("tiny", runner=runner,
                                  backend="vector")
        # The block sequence compiles once; every capacity step of
        # both allocators links that one artifact onto its layout.
        bench.run_grid("casa", self.SIZES)
        bench.run_grid("steinke", self.SIZES)
        assert runner.record.computed("stream") == 1
        assert runner.record.hits("stream") == 0
        # Only the layout-free sequence enters the store.
        assert [stage for stage, _ in store.memory_backend.entries()
                ].count("stream") == 1

    def test_second_workbench_links_the_stored_sequence(self):
        store = ArtifactStore()
        first = StageRunner(store=store)
        _, bench = make_workbench("tiny", runner=first, backend="vector")
        bench.run_grid("steinke", self.SIZES)
        second = StageRunner(store=store)
        again = Workbench(bench.program, bench.config, runner=second)
        result = again.evaluate_spm(bench.run_steinke(128).allocation, 128)
        assert second.record.hits("stream") == 1
        assert second.record.computed("stream") == 0
        assert result.report == bench.run_steinke(128).report

    def test_back_to_back_layouts_share_one_probe_expansion(self):
        _, bench = make_workbench("tiny", runner=StageRunner(
            store=ArtifactStore()), backend="vector")
        allocation = bench.run_casa(256).allocation
        registry = MetricsRegistry()
        previous = metrics.set_registry(registry)
        try:
            first = bench.evaluate_spm(allocation, 256)
            second = bench.evaluate_spm(allocation, 256)
        finally:
            metrics.set_registry(previous)
        # Both evaluations replay the probes the allocation's own run
        # expanded: the layout is the last one the workbench linked.
        assert registry.value("sim.kernel.stream_reuse") == 2
        assert second.report == first.report

    def test_placement_change_links_again(self):
        # One resident set under COMPACT, then under COPY: the second
        # layout must not reuse the first one's linked stream.
        _, bench = make_workbench("adpcm", scale=0.2, runner=StageRunner(
            store=ArtifactStore()), backend="vector")
        _, reference = make_workbench(
            "adpcm", scale=0.2, runner=StageRunner(store=ArtifactStore()),
            backend="reference")
        compact = bench.run_steinke(128).allocation
        assert compact.placement is Placement.COMPACT
        assert compact.spm_resident
        copy = dataclasses.replace(compact, placement=Placement.COPY)
        reports = [bench.evaluate_spm(allocation, 128).report
                   for allocation in (compact, copy, compact)]
        expected = [reference.evaluate_spm(allocation, 128).report
                    for allocation in (compact, copy, compact)]
        assert reports == expected
        assert reports[0].cache_misses != reports[1].cache_misses

    def test_reference_backend_never_compiles_streams(self):
        store = ArtifactStore()
        runner = StageRunner(store=store)
        _, bench = make_workbench("tiny", runner=runner,
                                  backend="reference")
        bench.run_casa(64)
        assert runner.record.computed("stream") == 0
        assert runner.record.hits("stream") == 0


def test_workbench_over_objects_missing_a_block_raises_before_simulating(
        monkeypatch):
    """Plans are built lazily, yet a trace that misses a block still
    fails with a :class:`LayoutError` before anything is simulated."""
    from repro.core import pipeline

    def drop_last_object(program, profile, config):
        return generate_traces(program, profile, config)[:-1]

    def never(*args, **kwargs):
        raise AssertionError("simulated a layout that misses a block")

    workload = get_workload("tiny")
    config = WorkbenchConfig(
        cache=workload.cache,
        tracegen=TraceGenConfig(line_size=16, max_trace_size=64),
        backend="vector",
    )
    monkeypatch.setattr(pipeline, "generate_traces", drop_last_object)
    monkeypatch.setattr(pipeline, "simulate", never)
    with pytest.raises(LayoutError, match="^block "):
        Workbench(workload.program, config,
                  runner=StageRunner(store=ArtifactStore()))
