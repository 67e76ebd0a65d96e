"""Staged experiment engine: cacheable stages, parallel sweeps.

The experimental flow of the paper's figure 3 decomposes into explicit
stages — profiling execution, trace formation, baseline cache
simulation, conflict-graph construction, allocation evaluation — each
producing a typed artifact with a content-addressed digest:

* :mod:`repro.engine.artifacts` — artifact types and digest chaining;
* :mod:`repro.engine.store` — tiered store over pluggable
  :class:`~repro.engine.store.StorageBackend` tiers (in-memory LRU
  plus, by default, an on-disk cache under ``.casa_cache/``);
* :mod:`repro.engine.runner` — stage resolution with hit/compute
  accounting (:class:`RunRecord`) and the engine-backed
  :func:`make_workbench`;
* :mod:`repro.engine.grid` — :class:`GridChunk`, the one work unit:
  an allocator over a capacity axis;
* :mod:`repro.engine.parallel` — :func:`map_points` fans chunks across
  a process pool with deterministic result ordering, on the
  self-healing executor of :mod:`repro.resilience.healing`.

Every consumer — ``Workbench``, the sweep/figure/table harnesses, the
CLI and the benchmarks — routes through this package, so a warm cache
eliminates all redundant profiling and simulation work, within a
process and across processes.
"""

from repro._lazy import lazy_exports

#: Environment variable overriding the default on-disk cache location
#: (here, not in :mod:`repro.engine.store`, so the CLI parser can name
#: it without loading the store).
CACHE_DIR_ENV = "CASA_CACHE_DIR"

__all__ = [
    "SCHEMA_VERSION",
    "AllocationArtifact",
    "BaselineSimArtifact",
    "ConflictGraphArtifact",
    "ExecutionArtifact",
    "StreamArtifact",
    "TraceArtifact",
    "baseline_digest",
    "canonical",
    "digest_inputs",
    "execution_digest",
    "fingerprint_program",
    "graph_digest",
    "result_digest",
    "stream_digest",
    "trace_digest",
    "workbench_digest",
    "CHUNK_ALGORITHMS",
    "GridChunk",
    "evaluate_chunk",
    "map_points",
    "STAGES",
    "RunRecord",
    "StageCount",
    "StageRunner",
    "make_workbench",
    "CACHE_DIR_ENV",
    "ArtifactStore",
    "BackendStats",
    "DiskBackend",
    "MemoryBackend",
    "StorageBackend",
    "StoreStats",
    "default_store",
    "make_backend",
    "set_default_store",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.artifacts": (
        "SCHEMA_VERSION",
        "AllocationArtifact",
        "BaselineSimArtifact",
        "ConflictGraphArtifact",
        "ExecutionArtifact",
        "StreamArtifact",
        "TraceArtifact",
        "baseline_digest",
        "canonical",
        "digest_inputs",
        "execution_digest",
        "fingerprint_program",
        "graph_digest",
        "result_digest",
        "stream_digest",
        "trace_digest",
        "workbench_digest",
    ),
    "repro.engine.grid": ("CHUNK_ALGORITHMS", "GridChunk", "evaluate_chunk"),
    "repro.engine.parallel": ("map_points",),
    "repro.engine.runner": (
        "STAGES",
        "RunRecord",
        "StageCount",
        "StageRunner",
        "make_workbench",
    ),
    "repro.engine.store": (
        "ArtifactStore",
        "BackendStats",
        "DiskBackend",
        "MemoryBackend",
        "StorageBackend",
        "StoreStats",
        "default_store",
        "make_backend",
        "set_default_store",
    ),
})
