"""Typed stage artifacts with content-addressed digests.

Every expensive stage of the experimental flow (figure 3) produces one
artifact — execution, trace formation, baseline cache simulation,
conflict-graph construction, allocation evaluation.  An artifact's
digest is a deterministic hash of *everything that influences its
content*: the program's structural fingerprint, the executor seed, the
trace-formation and cache configurations, the allocator identity and
the scratchpad size.  Two runs that would compute the same artifact
therefore compute the same digest, in any process, on any machine —
the property the :mod:`repro.engine.store` needs to reuse results
across sweeps, figures, benchmarks and operating-system processes.

Digests chain: a downstream stage's digest includes its upstream
stage's digest, so changing any input invalidates exactly the suffix
of the pipeline that depends on it.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:
    from repro.core.conflict_graph import ConflictGraph
    from repro.memory.config import CacheConfig
    from repro.memory.kernel.stream import CompiledSequence
    from repro.memory.stats import SimulationReport
    from repro.program.profile import ProfileData
    from repro.program.program import Program
    from repro.traces.memory_object import MemoryObject
    from repro.traces.tracegen import TraceGenConfig

#: Bump whenever the *meaning* of a stage's output changes (e.g. a
#: simulator fix): every digest embeds it, so old cached artifacts are
#: orphaned rather than silently reused.
SCHEMA_VERSION = 1

#: Hex digits kept from the sha256 digest (128 bits — collision-safe
#: for any realistic design-space size, short enough for filenames).
_DIGEST_LENGTH = 32

#: Entries kept by each digest memo: one per distinct configuration
#: (workbench) or design point (result) a process asks about.
DIGEST_MEMO_SIZE = 4096


def canonical(value: Any) -> Any:
    """Reduce *value* to deterministic JSON-serialisable primitives.

    Dataclasses become sorted field dictionaries tagged with the class
    name, enums their values, floats their ``repr`` (so ``1`` and
    ``1.0`` canonicalise differently from ``"1"`` but identically to
    each other after a ``float()`` normalisation by the caller).
    """
    if is_dataclass(value) and not isinstance(value, type):
        reduced = {
            field.name: canonical(getattr(value, field.name))
            for field in fields(value)
        }
        reduced["__class__"] = type(value).__name__
        return reduced
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return repr(value)


def digest_inputs(stage: str, **inputs: Any) -> str:
    """Content digest of one stage invocation.

    Args:
        stage: stage name (``execution``, ``trace``, ...).
        **inputs: everything that determines the stage's output.

    Returns:
        A hex digest stable across processes and Python versions.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "stage": stage,
        "inputs": canonical(inputs),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:_DIGEST_LENGTH]


def fingerprint_program(program: Program) -> str:
    """Structural fingerprint of a program.

    Hashes everything the executor and trace generator observe: the
    function/block layout, every instruction's opcode and target, the
    fall-through links and the branch behaviours (whose ``repr`` spells
    out trip counts and probabilities).  Workload ``scale`` therefore
    reaches the fingerprint through the trip counts it changes.  The
    result is memoised on the program instance.
    """
    cached = getattr(program, "_engine_fingerprint", None)
    if cached is not None:
        return cached
    spec: list[Any] = [program.name, program.entry]
    for function in program.functions:
        blocks = []
        for block in function:
            blocks.append([
                block.name,
                [[instr.opcode.value, instr.target or ""]
                 for instr in block.instructions],
                block.fallthrough or "",
                repr(block.behavior) if block.behavior else "",
            ])
        spec.append([function.name, blocks])
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(
        blob.encode("utf-8")
    ).hexdigest()[:_DIGEST_LENGTH]
    program._engine_fingerprint = fingerprint
    return fingerprint


# -- digest constructors, one per stage ---------------------------------------


def execution_digest(program: Program, seed: int) -> str:
    """Digest of the profiling execution stage."""
    return digest_inputs(
        "execution",
        program=fingerprint_program(program),
        seed=seed,
    )


def trace_digest(execution: str, tracegen: TraceGenConfig) -> str:
    """Digest of the trace-formation stage."""
    return digest_inputs("trace", execution=execution, tracegen=tracegen)


def stream_digest(trace: str) -> str:
    """Digest of one compiled block sequence (per program + trace).

    The compiled sequence is a pure function of the executed block
    sequence (chained through *trace*, which embeds the execution
    digest) and of the memory objects' fragments (the trace itself).
    No layout input participates — not the scratchpad-resident set,
    the placement policy or the base addresses: the sequence holds
    offsets inside objects, and every layout links the same artifact.
    Neither does the cache configuration or the scratchpad capacity.
    """
    return digest_inputs("stream", trace=trace)


def baseline_digest(trace: str, cache: CacheConfig,
                    main_base: int, spm_base: int) -> str:
    """Digest of the baseline (cache-only) simulation stage."""
    return digest_inputs(
        "baseline",
        trace=trace,
        cache=cache,
        main_base=main_base,
        spm_base=spm_base,
    )


def graph_digest(baseline: str) -> str:
    """Digest of the conflict-graph construction stage."""
    return digest_inputs("graph", baseline=baseline)


def _field_types(config: Any) -> tuple[type, ...]:
    """The types of a flat configuration dataclass's field values.

    Part of every digest memo key: dataclass equality ignores type, so
    ``TraceGenConfig(max_trace_size=64)`` equals the ``64.0`` spelling
    that :func:`canonical` digests differently.
    """
    if config is None:
        return ()
    return tuple(type(getattr(config, field.name))
                 for field in fields(config))


def result_digest(graph: str, algorithm: str, spm_size: int,
                  options: dict[str, Any] | None = None) -> str:
    """Digest of one allocation decision's evaluated result.

    Memoised in a bounded LRU keyed by value and type (options in
    sorted order): a warm design point hashes nothing.

    Args:
        graph: the conflict-graph digest (which chains every upstream
            input).
        algorithm: allocator identifier (``casa``, ``steinke``, ...).
        spm_size: scratchpad / loop-cache capacity in bytes.
        options: extra allocator parameters (e.g. Ross's
            ``max_regions``) that change the decision; their values
            must be hashable.
    """
    return _result_digest(
        graph, algorithm, spm_size,
        tuple(sorted((name, type(value), value)
                     for name, value in (options or {}).items())),
    )


@functools.lru_cache(maxsize=DIGEST_MEMO_SIZE, typed=True)
def _result_digest(graph: str, algorithm: str, spm_size: int,
                   options: tuple[tuple[str, type, Any], ...]) -> str:
    """:func:`result_digest` over a sorted, type-tagged options key."""
    return digest_inputs(
        "result",
        graph=graph,
        algorithm=algorithm,
        spm_size=spm_size,
        options={name: value for name, _, value in options},
    )


def workbench_digest(workload: str, scale: float, seed: int,
                     cache: CacheConfig | None,
                     tracegen: TraceGenConfig | None,
                     backend: str | None = None) -> str:
    """Digest identifying one profiled workbench (in-memory memo key).

    It covers the configuration as requested: ``None`` for *cache* or
    *tracegen* stands for the workload's defaults, so a memo lookup
    needs no workload metadata.  Memoised in a bounded LRU keyed by
    value and type: a warm request hashes nothing.

    The *backend* knob participates here — the memoised workbench
    carries its backend in its configuration, so requests for
    different backends must not share a memo — but deliberately not
    in any stage digest: both backends produce bit-identical
    artifacts, which therefore stay shared across backends.
    """
    return _workbench_digest(
        workload, float(scale), seed, cache, tracegen, backend or "",
        (_field_types(cache), _field_types(tracegen)),
    )


@functools.lru_cache(maxsize=DIGEST_MEMO_SIZE, typed=True)
def _workbench_digest(workload: str, scale: float, seed: int,
                      cache: CacheConfig | None,
                      tracegen: TraceGenConfig | None, backend: str,
                      field_types: tuple[tuple[type, ...], ...]) -> str:
    """:func:`workbench_digest` keyed by value *and* type.

    ``typed=True`` keeps ``seed=True`` and ``seed=1`` apart, and
    *field_types* does the same inside the configuration dataclasses:
    keys that compare equal but :func:`canonical` spells differently
    never share an entry.
    """
    del field_types
    return digest_inputs(
        "workbench",
        workload=workload,
        scale=scale,
        seed=seed,
        cache=cache,
        tracegen=tracegen,
        backend=backend,
    )


# -- artifact containers ------------------------------------------------------


@dataclass(frozen=True)
class ExecutionArtifact:
    """Output of the profiling execution stage."""

    #: Store stage name.
    STAGE: ClassVar[str] = "execution"
    digest: str
    block_sequence: list[str]
    profile: ProfileData


@dataclass(frozen=True)
class TraceArtifact:
    """Output of profile-guided trace formation."""

    #: Store stage name.
    STAGE: ClassVar[str] = "trace"
    digest: str
    memory_objects: list[MemoryObject]


@dataclass(frozen=True)
class StreamArtifact:
    """A compiled block sequence (the vector kernel's input, unlinked)."""

    #: Store stage name.
    STAGE: ClassVar[str] = "stream"
    digest: str
    sequence: CompiledSequence


@dataclass(frozen=True)
class BaselineSimArtifact:
    """Output of the cache-only baseline simulation."""

    #: Store stage name.
    STAGE: ClassVar[str] = "baseline"
    digest: str
    report: SimulationReport


@dataclass(frozen=True)
class ConflictGraphArtifact:
    """Output of conflict-graph construction."""

    #: Store stage name.
    STAGE: ClassVar[str] = "graph"
    digest: str
    graph: ConflictGraph
    #: Memo of :func:`repro.io.serde.conflict_graph_payload`: held by
    #: the store entry, not by the mutable graph; never pickled.
    _payload: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle without the memoised wire payload."""
        state = self.__dict__.copy()
        state.pop("_payload", None)
        return state


@dataclass(frozen=True)
class AllocationArtifact:
    """One allocation decision, evaluated end to end.

    The payload is the :class:`repro.core.pipeline.ExperimentResult`
    (typed loosely here to avoid a circular import with the pipeline
    façade that produces it).
    """

    #: Store stage name.
    STAGE: ClassVar[str] = "result"
    digest: str
    result: Any
