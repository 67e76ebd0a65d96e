"""Contract and spec tests of the pluggable storage backends."""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.engine.store import (
    SWEEP_MARKER,
    ArtifactStore,
    DiskBackend,
    MemoryBackend,
    StorageBackend,
    default_store,
    make_backend,
    set_default_store,
)
from repro.errors import ConfigurationError, UnknownBackendError
from repro.obs.metrics import MetricsRegistry, set_registry

BACKEND_FACTORIES = {
    "memory": lambda tmp: MemoryBackend(),
    "disk": lambda tmp: DiskBackend(tmp / "cache"),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request, tmp_path):
    """One instance of each backend implementation."""
    return BACKEND_FACTORIES[request.param](tmp_path)


class TestStorageBackendContract:
    """Every implementation honours the same protocol semantics."""

    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)
        assert isinstance(backend.name, str) and backend.name

    def test_miss_then_roundtrip(self, backend):
        assert backend.get("trace", "d1") is None
        assert backend.stats.misses == 1
        backend.put("trace", "d1", {"payload": [1, 2]})
        assert backend.get("trace", "d1") == {"payload": [1, 2]}
        assert backend.stats.hits == 1
        assert backend.stats.puts == 1

    def test_keys_are_stage_and_digest(self, backend):
        backend.put("trace", "d1", "a")
        assert backend.get("graph", "d1") is None
        assert backend.get("trace", "d2") is None

    def test_entries_sorted(self, backend):
        backend.put("graph", "b", 1)
        backend.put("trace", "a", 2)
        backend.put("graph", "a", 3)
        assert backend.entries() == [
            ("graph", "a"), ("graph", "b"), ("trace", "a")]

    def test_usage_counts_entries(self, backend):
        assert backend.usage()[0] == 0
        backend.put("trace", "d1", "x")
        backend.put("trace", "d2", "y")
        count, total_bytes = backend.usage()
        assert count == 2
        assert total_bytes >= 0

    def test_delete(self, backend):
        backend.put("trace", "d1", "x")
        assert backend.delete("trace", "d1") is True
        assert backend.delete("trace", "d1") is False
        assert backend.get("trace", "d1") is None
        assert backend.entries() == []

    def test_overwrite_keeps_one_entry(self, backend):
        backend.put("trace", "d1", "old")
        backend.put("trace", "d1", "new")
        assert backend.get("trace", "d1") == "new"
        assert backend.usage()[0] == 1

    def test_clear(self, backend):
        backend.put("trace", "d1", "x")
        backend.put("graph", "d2", "y")
        assert backend.clear() == 2
        assert backend.entries() == []

    def test_per_backend_metrics(self, backend):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            backend.put("trace", "d1", "x")
            backend.get("trace", "d1")
            backend.get("trace", "nope")
        finally:
            set_registry(previous)
        name = backend.name
        assert registry.value(f"store.backend.{name}.puts") == 1
        assert registry.value(f"store.backend.{name}.hits") == 1
        assert registry.value(f"store.backend.{name}.misses") == 1


class TestMemoryByteBudget:
    """Byte-budget admission and eviction of the memory backend."""

    def test_oversized_artifact_is_not_admitted(self):
        backend = MemoryBackend(max_bytes=64)
        backend.put("trace", "big", "x" * 4096)
        assert backend.get("trace", "big") is None
        assert backend.usage() == (0, 0)
        assert backend.stats.puts == 0

    def test_budget_evicts_from_lru_tail(self):
        small = b"a" * 100
        size = len(pickle.dumps(small))
        backend = MemoryBackend(max_bytes=2 * size + 8)
        backend.put("s", "a", small)
        backend.put("s", "b", b"b" * 100)
        assert backend.usage()[0] == 2
        backend.put("s", "c", b"c" * 100)
        assert backend.stats.evictions >= 1
        assert backend.get("s", "a") is None
        assert backend.get("s", "c") is not None

    def test_without_budget_no_sizing(self):
        backend = MemoryBackend()
        backend.put("s", "a", "x" * 4096)
        assert backend.usage() == (1, 0)


class TestDiskCompatibility:
    """DiskBackend is bit-compatible with the legacy store layout."""

    def test_store_written_entries_readable_by_backend(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.put("trace", "deadbeef", ["obj1", "obj2"])
        backend = DiskBackend(tmp_path)
        assert backend.get("trace", "deadbeef") == ["obj1", "obj2"]
        assert backend.entries() == [("trace", "deadbeef")]

    def test_backend_written_entries_readable_by_store(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("graph", "feed", {"n": 1})
        store = ArtifactStore(cache_dir=tmp_path)
        assert store.get("graph", "feed") == {"n": 1}
        assert store.stats.disk_hits == 1


class TestOrphanSweepRateLimit:
    """The orphan-temp sweep runs at most once per interval."""

    def _orphan(self, directory):
        path = directory / f"trace-d1.pkl.tmp.{os.getpid() + 1}"
        path.write_bytes(b"partial")
        return path

    def test_first_open_sweeps_and_stamps_marker(self, tmp_path):
        orphan = self._orphan(tmp_path)
        DiskBackend(tmp_path)
        assert not orphan.exists()
        assert (tmp_path / SWEEP_MARKER).is_file()

    def test_second_open_within_interval_skips(self, tmp_path):
        DiskBackend(tmp_path)
        orphan = self._orphan(tmp_path)
        DiskBackend(tmp_path)
        assert orphan.exists()

    def test_force_sweeps_despite_marker(self, tmp_path):
        backend = DiskBackend(tmp_path)
        orphan = self._orphan(tmp_path)
        backend.sweep_orphans(force=True)
        assert not orphan.exists()

    def test_stale_marker_allows_sweep(self, tmp_path):
        backend = DiskBackend(tmp_path, sweep_interval_s=0.01)
        orphan = self._orphan(tmp_path)
        marker = tmp_path / SWEEP_MARKER
        stale = time.time() - 10.0
        os.utime(marker, (stale, stale))
        backend.sweep_orphans()
        assert not orphan.exists()

    def test_own_pid_temp_is_left_alone(self, tmp_path):
        inflight = tmp_path / f"trace-d1.pkl.tmp.{os.getpid()}"
        inflight.write_bytes(b"in flight")
        DiskBackend(tmp_path).sweep_orphans(force=True)
        assert inflight.exists()


class TestBackendSpecs:
    """The ``name[:arg]`` spec grammar and the registry hook."""

    def test_memory_spec(self):
        backend = make_backend("memory")
        assert isinstance(backend, MemoryBackend)
        assert backend.max_bytes is None

    def test_memory_spec_with_byte_budget(self):
        backend = make_backend("memory:1048576")
        assert backend.max_bytes == 1048576

    def test_memory_spec_bad_budget(self):
        with pytest.raises(ConfigurationError):
            make_backend("memory:lots")

    def test_disk_spec_with_path(self, tmp_path):
        backend = make_backend(f"disk:{tmp_path}")
        assert isinstance(backend, DiskBackend)
        assert backend.cache_dir == tmp_path

    def test_unknown_backend_error(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            make_backend("s3:bucket")
        assert excinfo.value.name == "s3"
        assert excinfo.value.choices == ("disk", "memory")
        assert "s3" in str(excinfo.value)

    def test_unknown_backend_error_pickles(self):
        error = UnknownBackendError("s3", ("disk", "memory"))
        clone = pickle.loads(pickle.dumps(error))
        assert clone.name == "s3"
        assert clone.choices == ("disk", "memory")



class TestArtifactStoreBackends:
    """ArtifactStore composes the tiers behind backend specs."""

    def test_memory_spec_store(self):
        store = ArtifactStore(backend="memory:65536")
        store.put("trace", "d1", "x")
        assert store.get("trace", "d1") == "x"
        assert store.cache_dir is None

    def test_disk_spec_store_is_legacy_compatible(self, tmp_path):
        spec_store = ArtifactStore(backend=f"disk:{tmp_path}")
        spec_store.put("trace", "d1", "payload")
        legacy = ArtifactStore(cache_dir=tmp_path)
        assert legacy.get("trace", "d1") == "payload"

    def test_set_default_store_accepts_spec(self):
        previous = set_default_store("memory:4096")
        try:
            store = default_store()
            assert isinstance(store, ArtifactStore)
            assert store.memory_backend.max_bytes == 4096
        finally:
            set_default_store(previous)
