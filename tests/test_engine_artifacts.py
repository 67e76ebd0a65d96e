"""Digest semantics of the engine's content-addressed artifacts."""

from __future__ import annotations

from repro.engine import artifacts
from repro.engine.artifacts import (
    DIGEST_MEMO_SIZE,
    baseline_digest,
    canonical,
    digest_inputs,
    execution_digest,
    fingerprint_program,
    graph_digest,
    result_digest,
    trace_digest,
    workbench_digest,
)
from repro.memory.cache import CacheConfig
from repro.traces.tracegen import TraceGenConfig
from repro.workloads.registry import get_workload

CACHE = CacheConfig(size=128, line_size=16, associativity=1)
TRACEGEN = TraceGenConfig(line_size=16, max_trace_size=64)


def test_program_fingerprint_stable_across_rebuilds():
    first = get_workload("tiny").program
    second = get_workload("tiny").program
    assert first is not second
    assert fingerprint_program(first) == fingerprint_program(second)


def test_fingerprint_sees_scale():
    base = get_workload("tiny", scale=1.0).program
    scaled = get_workload("tiny", scale=2.0).program
    assert fingerprint_program(base) != fingerprint_program(scaled)


def test_execution_digest_depends_on_seed():
    program = get_workload("tiny").program
    assert execution_digest(program, 0) == execution_digest(program, 0)
    assert execution_digest(program, 0) != execution_digest(program, 1)


def test_trace_digest_depends_on_tracegen():
    assert trace_digest("abc", TRACEGEN) == trace_digest("abc", TRACEGEN)
    other = TraceGenConfig(line_size=16, max_trace_size=128)
    assert trace_digest("abc", TRACEGEN) != trace_digest("abc", other)
    assert trace_digest("abc", TRACEGEN) != trace_digest("xyz", TRACEGEN)


def test_baseline_digest_depends_on_cache_geometry():
    base = baseline_digest("t", CACHE, 0, 0)
    assert base == baseline_digest("t", CACHE, 0, 0)
    wider = CacheConfig(size=128, line_size=16, associativity=2)
    assert base != baseline_digest("t", wider, 0, 0)
    assert base != baseline_digest("t", CACHE, 4096, 0)


def test_result_digest_depends_on_decision_inputs():
    graph = graph_digest("b")
    base = result_digest(graph, "casa", 128)
    assert base == result_digest(graph, "casa", 128)
    assert base != result_digest(graph, "steinke", 128)
    assert base != result_digest(graph, "casa", 256)
    assert base != result_digest(graph, "casa", 128,
                                 {"max_regions": 2})
    assert base == result_digest(graph, "casa", 128, None)


def test_workbench_digest_normalises_scale():
    one = workbench_digest("tiny", 1, 0, CACHE, TRACEGEN)
    one_f = workbench_digest("tiny", 1.0, 0, CACHE, TRACEGEN)
    half = workbench_digest("tiny", 0.5, 0, CACHE, TRACEGEN)
    assert one == one_f
    assert one != half


def test_canonical_handles_compound_values():
    reduced = canonical({"cache": CACHE, "sizes": {128, 64},
                         "scale": 1.0})
    assert reduced["cache"]["__class__"] == "CacheConfig"
    assert reduced["sizes"] == [64, 128]
    assert reduced["scale"] == "1.0"


def _fresh_workbench_digest(workload, scale, seed, cache, tracegen):
    return digest_inputs("workbench", workload=workload,
                         scale=float(scale), seed=seed, cache=cache,
                         tracegen=tracegen, backend="")


def _fresh_result_digest(graph, algorithm, spm_size, options):
    return digest_inputs("result", graph=graph, algorithm=algorithm,
                         spm_size=spm_size, options=options)


def test_memoised_workbench_digest_equals_a_fresh_computation():
    float_tracegen = TraceGenConfig(line_size=16, max_trace_size=64.0)
    assert float_tracegen == TRACEGEN
    seen = {}
    for seed in (1, True):
        for scale in (1, 1.0, 2.0):
            for tracegen in (TRACEGEN, float_tracegen):
                expected = _fresh_workbench_digest(
                    "tiny", scale, seed, CACHE, tracegen)
                for _ in range(2):  # a miss, then a memo hit
                    assert workbench_digest(
                        "tiny", scale, seed, CACHE, tracegen
                    ) == expected
                seen[(type(seed), float(scale), type(tracegen
                      .max_trace_size))] = expected
    # Equal-comparing keys that canonicalise differently (seed True vs
    # 1, max_trace_size 64.0 vs 64) keep apart; 1 vs 1.0 share a digest.
    assert len(set(seen.values())) == len(seen) == 8


def test_memoised_result_digest_equals_a_fresh_computation():
    graph = graph_digest("b")
    ordered = {"max_regions": 2, "alpha": 1}
    reordered = {"alpha": 1, "max_regions": 2}
    as_bool = {"max_regions": 2, "alpha": True}
    cases = [(None, {}), ({}, {}), (ordered, ordered),
             (reordered, ordered), (as_bool, as_bool)]
    for options, canonical_options in cases:
        for spm_size in (128, 128.0):
            expected = _fresh_result_digest(graph, "ross", spm_size,
                                            canonical_options)
            for _ in range(2):
                assert result_digest(graph, "ross", spm_size,
                                     options) == expected
    assert result_digest(graph, "ross", 128, ordered) \
        != result_digest(graph, "ross", 128, as_bool)
    assert result_digest(graph, "ross", 128) \
        != result_digest(graph, "ross", 128.0)


def test_digest_memos_are_bounded():
    for memo in (artifacts._workbench_digest, artifacts._result_digest):
        assert memo.cache_info().maxsize == DIGEST_MEMO_SIZE
    assert 0 < DIGEST_MEMO_SIZE < 100_000
