"""Parallel work-unit execution must be indistinguishable from serial."""

from __future__ import annotations

import pytest

from repro.engine.grid import GridChunk, evaluate_chunk
from repro.engine.parallel import map_points
from repro.engine.runner import RunRecord
from repro.engine.store import ArtifactStore, set_default_store
from repro.errors import ConfigurationError

POINTS = [
    GridChunk("tiny", (64,), "casa", scale=0.2),
    GridChunk("tiny", (64,), "steinke", scale=0.2),
    GridChunk("tiny", (128,), "casa", scale=0.2),
    GridChunk("tiny", (0,), "baseline", scale=0.2),
]


@pytest.fixture
def shared_cache(tmp_path):
    """A disk-backed default store the worker pool can share."""
    previous = set_default_store(
        ArtifactStore(cache_dir=tmp_path / "cache")
    )
    yield
    set_default_store(previous)


def test_parallel_matches_serial(shared_cache):
    serial = map_points(POINTS, jobs=1)
    parallel = map_points(POINTS, jobs=2)
    assert len(parallel) == len(serial)
    for [left], [right] in zip(serial, parallel):
        assert left.energy.total == right.energy.total
        assert left.report.cache_misses == right.report.cache_misses
        assert left.allocation.algorithm == right.allocation.algorithm


def test_parallel_merges_worker_records(shared_cache):
    record = RunRecord()
    map_points(POINTS, jobs=2, record=record)
    assert record.computed("result") + record.hits("result") \
        == sum(1 for p in POINTS if p.algorithm != "baseline")


def test_unknown_algorithm_rejected_before_spawning():
    bogus = [GridChunk("tiny", (64,), "annealing")]
    with pytest.raises(ConfigurationError):
        map_points(bogus, jobs=2)
    with pytest.raises(ConfigurationError):
        evaluate_chunk(bogus[0])


def test_single_point_runs_serially(shared_cache):
    record = RunRecord()
    [[result]] = map_points([POINTS[0]], jobs=8, record=record)
    assert result.allocation.algorithm == "casa"
    assert record.computed("execution") == 1
