"""Typed wire schemas of the ``repro serve`` daemon.

Each of the :class:`~repro.api.Session` verbs — ``simulate``,
``conflict_graph``, ``allocate``, ``evaluate`` — plus ``sweep`` has a
frozen request dataclass and a matching response dataclass here.  All
payloads are version-tagged plain dicts (``schema_version`` +
``kind``) that round-trip through ``to_json``/``from_json``; result
objects travel as the canonical :mod:`repro.io.serde` payloads, so a
response body decodes back into the same domain objects a local
session returns (:meth:`repro.api.Session.from_response`).

Version policy: :data:`SCHEMA_VERSION` is what this build *emits*;
:data:`SUPPORTED_SCHEMA_VERSIONS` is what it *accepts*.  Purely
additive changes (version 2 added the optional ``deadline_ms`` request
field and the ``shed`` / ``deadline_exceeded`` statuses) keep older
versions in the supported set, so a v1 client keeps working against a
v2 daemon; a truly incompatible change drops them, and version skew
then fails loudly at the edge instead of deep in a solve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.engine.grid import CHUNK_ALGORITHMS
from repro.errors import ConfigurationError, WorkloadError
from repro.memory.config import CacheConfig
from repro.traces.tracegen import TraceGenConfig
from repro.workloads.registry import available_workloads, check_scale

#: Wire format version this build emits.  v2 added the optional
#: ``deadline_ms`` request field plus the ``shed`` and
#: ``deadline_exceeded`` response statuses.
SCHEMA_VERSION = 2

#: Versions this build accepts (v1 payloads simply lack the
#: additive v2 fields, so they decode with the defaults).
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Tenant used when a request does not name one.
DEFAULT_TENANT = "default"

#: Accepted tenant names: 1-64 characters of ``[A-Za-z0-9_.-]``, not
#: starting with ``.``.  A tenant names a directory under a disk
#: store's root, so it must never be a path.
TENANT_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{0,63}")

#: The statuses a response may carry: the healed-evaluation outcomes
#: (mirroring :data:`repro.resilience.healing.OUTCOME_STATUSES`) plus
#: the two service-level refusals — ``deadline_exceeded`` (the
#: request's ``deadline_ms`` budget ran out) and ``shed`` (admission
#: control refused it; retry later).
RESPONSE_STATUSES = ("ok", "retried", "degraded", "failed",
                     "deadline_exceeded", "shed")


def _require_version(data: dict[str, Any]) -> None:
    """Reject payloads from an unsupported schema version."""
    version = data.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ConfigurationError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks {SUPPORTED_SCHEMA_VERSIONS})"
        )


def _cache_to_dict(cache: CacheConfig | None) -> dict[str, Any] | None:
    if cache is None:
        return None
    return {
        "size": cache.size,
        "line_size": cache.line_size,
        "associativity": cache.associativity,
        "policy": cache.policy,
    }


def _cache_from_dict(data: dict[str, Any] | None) -> CacheConfig | None:
    if data is None:
        return None
    return CacheConfig(
        size=data["size"],
        line_size=data["line_size"],
        associativity=data.get("associativity", 1),
        policy=data.get("policy", "lru"),
    )


def _tracegen_to_dict(tracegen: TraceGenConfig | None
                      ) -> dict[str, Any] | None:
    if tracegen is None:
        return None
    return {
        "line_size": tracegen.line_size,
        "max_trace_size": tracegen.max_trace_size,
        "min_fallthrough_count": tracegen.min_fallthrough_count,
    }


def _tracegen_from_dict(data: dict[str, Any] | None
                        ) -> TraceGenConfig | None:
    if data is None:
        return None
    return TraceGenConfig(
        line_size=data["line_size"],
        max_trace_size=data["max_trace_size"],
        min_fallthrough_count=data.get("min_fallthrough_count", 1),
    )


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _RequestBase:
    """Fields shared by every request: the session configuration.

    Attributes:
        workload: registered workload name (the wire API serves named
            workloads only; raw programs cannot travel as JSON).
        scale: outer-loop trip-count multiplier.
        seed: executor seed.
        cache: I-cache override (``None`` = the workload's default).
        tracegen: trace-formation override.
        backend: simulation backend (``reference`` | ``vector`` |
            ``auto`` | ``None``).
        tenant: artifact-store shard this request's caching lands in.
        deadline_ms: optional end-to-end budget in milliseconds,
            measured from the moment the daemon admits the request.
            A request that cannot finish inside the budget is answered
            with status ``deadline_exceeded`` instead of occupying a
            worker (``None`` = no deadline, the v1 behavior).
    """

    workload: str
    scale: float = 1.0
    seed: int = 0
    cache: CacheConfig | None = None
    tracegen: TraceGenConfig | None = None
    backend: str | None = None
    tenant: str = DEFAULT_TENANT
    deadline_ms: int | None = None

    #: Wire discriminator; overridden per subclass.
    kind = ""

    def _common_json(self) -> dict[str, Any]:
        """The shared fields as a JSON-able dict."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "scale": self.scale,
            "seed": self.seed,
            "cache": _cache_to_dict(self.cache),
            "tracegen": _tracegen_to_dict(self.tracegen),
            "backend": self.backend,
            "tenant": self.tenant,
            "deadline_ms": self.deadline_ms,
        }

    def to_json(self) -> dict[str, Any]:
        """The full request as a JSON-able dict."""
        return self._common_json()


def _common_kwargs(data: dict[str, Any]) -> dict[str, Any]:
    """Decode the shared request fields from a payload dict."""
    workload = data.get("workload")
    if not workload:
        raise ConfigurationError("request payload names no workload")
    if workload not in available_workloads():
        raise WorkloadError(
            f"unknown workload {workload!r}; available: "
            f"{available_workloads()}"
        )
    tenant = data.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) \
            or not TENANT_PATTERN.fullmatch(tenant):
        raise ConfigurationError(
            f"tenant must be 1-64 characters of [A-Za-z0-9_.-] not "
            f"starting with '.', got {tenant!r}"
        )
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, int) or deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be a positive integer, "
                f"got {deadline_ms!r}"
            )
    scale = check_scale(data.get("scale", 1.0))
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    return {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "cache": _cache_from_dict(data.get("cache")),
        "tracegen": _tracegen_from_dict(data.get("tracegen")),
        "backend": data.get("backend"),
        "tenant": tenant,
        "deadline_ms": deadline_ms,
    }


def _check_algorithm(algorithm: str) -> str:
    """Validate an allocator name against the grid-chunk set."""
    if algorithm not in CHUNK_ALGORITHMS:
        raise ConfigurationError(
            f"unknown serve algorithm {algorithm!r}; choose from "
            f"{CHUNK_ALGORITHMS}"
        )
    return algorithm


@dataclass(frozen=True)
class SimulateRequest(_RequestBase):
    """Baseline (cache-only) simulation of one workload."""

    kind = "simulate"

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SimulateRequest":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(**_common_kwargs(data))


@dataclass(frozen=True)
class ConflictGraphRequest(_RequestBase):
    """The profiled conflict graph G = (X, E) of one workload."""

    kind = "conflict_graph"

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ConflictGraphRequest":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(**_common_kwargs(data))


@dataclass(frozen=True)
class AllocateRequest(_RequestBase):
    """One allocator decision at one capacity (no result simulation).

    Attributes:
        algorithm: one of
            :data:`~repro.engine.grid.CHUNK_ALGORITHMS`.
        spm_size: capacity in bytes (``None`` = the workload's
            smallest table-1 size).
        max_regions: region budget for the ``ross`` allocator.
    """

    algorithm: str = "casa"
    spm_size: int | None = None
    max_regions: int = 4

    kind = "allocate"

    def to_json(self) -> dict[str, Any]:
        """The full request as a JSON-able dict."""
        data = self._common_json()
        data["algorithm"] = self.algorithm
        data["spm_size"] = self.spm_size
        data["max_regions"] = self.max_regions
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "AllocateRequest":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(
            algorithm=_check_algorithm(data.get("algorithm", "casa")),
            spm_size=data.get("spm_size"),
            max_regions=data.get("max_regions", 4),
            **_common_kwargs(data),
        )


@dataclass(frozen=True)
class EvaluateRequest(_RequestBase):
    """Allocate and simulate one (algorithm, capacity) design point.

    Attributes:
        algorithm: one of
            :data:`~repro.engine.grid.CHUNK_ALGORITHMS`.
        spm_size: capacity in bytes (``None`` = the workload's
            smallest table-1 size).
        max_regions: region budget for the ``ross`` allocator.
    """

    algorithm: str = "casa"
    spm_size: int | None = None
    max_regions: int = 4

    kind = "evaluate"

    def to_json(self) -> dict[str, Any]:
        """The full request as a JSON-able dict."""
        data = self._common_json()
        data["algorithm"] = self.algorithm
        data["spm_size"] = self.spm_size
        data["max_regions"] = self.max_regions
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "EvaluateRequest":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(
            algorithm=_check_algorithm(data.get("algorithm", "casa")),
            spm_size=data.get("spm_size"),
            max_regions=data.get("max_regions", 4),
            **_common_kwargs(data),
        )


@dataclass(frozen=True)
class SweepRequest(_RequestBase):
    """Evaluate one allocator across a whole capacity axis.

    Attributes:
        algorithm: one of
            :data:`~repro.engine.grid.CHUNK_ALGORITHMS`.
        spm_sizes: the capacity axis in bytes (``None`` = the
            workload's table-1 axis).
        max_regions: region budget for the ``ross`` allocator.
    """

    algorithm: str = "casa"
    spm_sizes: tuple[int, ...] | None = None
    max_regions: int = 4

    kind = "sweep"

    def to_json(self) -> dict[str, Any]:
        """The full request as a JSON-able dict."""
        data = self._common_json()
        data["algorithm"] = self.algorithm
        data["spm_sizes"] = list(self.spm_sizes) \
            if self.spm_sizes is not None else None
        data["max_regions"] = self.max_regions
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SweepRequest":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        sizes = data.get("spm_sizes")
        return cls(
            algorithm=_check_algorithm(data.get("algorithm", "casa")),
            spm_sizes=tuple(sizes) if sizes is not None else None,
            max_regions=data.get("max_regions", 4),
            **_common_kwargs(data),
        )


#: Wire ``kind`` → request class, the daemon's routing table.
REQUEST_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (SimulateRequest, ConflictGraphRequest, AllocateRequest,
                EvaluateRequest, SweepRequest)
}


def request_from_json(data: dict[str, Any]):
    """Decode any request payload by its ``kind`` discriminator."""
    kind = data.get("kind")
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown request kind {kind!r}; choose from "
            f"{', '.join(sorted(REQUEST_KINDS))}"
        )
    return cls.from_json(data)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ResponseBase:
    """Fields shared by every response: the outcome envelope.

    Attributes:
        status: one of :data:`RESPONSE_STATUSES` — how the healed
            evaluation of the backing work unit went.
        attempts: evaluation attempts consumed.
        error: structured record of the last failure
            (``{"type", "message", "site"}``) or ``None``.
        run_id: correlation id of the daemon's structured run log.
    """

    status: str = "ok"
    attempts: int = 1
    error: dict[str, str] | None = None
    run_id: str | None = None

    #: Wire discriminator; overridden per subclass.
    kind = ""

    def _common_json(self) -> dict[str, Any]:
        """The shared fields as a JSON-able dict."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "run_id": self.run_id,
        }

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        return self._common_json()


def _outcome_kwargs(data: dict[str, Any]) -> dict[str, Any]:
    """Decode the shared response fields from a payload dict."""
    status = data.get("status", "ok")
    if status not in RESPONSE_STATUSES:
        raise ConfigurationError(
            f"unknown response status {status!r}; choose from "
            f"{RESPONSE_STATUSES}"
        )
    return {
        "status": status,
        "attempts": data.get("attempts", 1),
        "error": data.get("error"),
        "run_id": data.get("run_id"),
    }


@dataclass(frozen=True)
class SimulateResponse(_ResponseBase):
    """Baseline simulation statistics (a ``simulation_report`` payload)."""

    report: dict[str, Any] | None = None

    kind = "simulate.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["report"] = self.report
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SimulateResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(report=data.get("report"), **_outcome_kwargs(data))


@dataclass(frozen=True)
class ConflictGraphResponse(_ResponseBase):
    """A profiled conflict graph (a ``conflict_graph`` payload)."""

    graph: dict[str, Any] | None = None

    kind = "conflict_graph.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["graph"] = self.graph
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ConflictGraphResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(graph=data.get("graph"), **_outcome_kwargs(data))


@dataclass(frozen=True)
class AllocateResponse(_ResponseBase):
    """One allocator decision (an ``allocation`` payload)."""

    allocation: dict[str, Any] | None = None

    kind = "allocate.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["allocation"] = self.allocation
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "AllocateResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(allocation=data.get("allocation"),
                   **_outcome_kwargs(data))


@dataclass(frozen=True)
class EvaluateResponse(_ResponseBase):
    """One evaluated design point (an ``experiment_result`` payload)."""

    result: dict[str, Any] | None = None

    kind = "evaluate.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["result"] = self.result
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "EvaluateResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(result=data.get("result"), **_outcome_kwargs(data))


@dataclass(frozen=True)
class SweepResponse(_ResponseBase):
    """A whole capacity axis (``experiment_result`` payloads in order).

    Attributes:
        spm_sizes: the capacities evaluated, aligned with ``results``.
        results: one ``experiment_result`` payload per capacity.
    """

    spm_sizes: tuple[int, ...] = ()
    results: tuple[dict[str, Any], ...] = ()

    kind = "sweep.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["spm_sizes"] = list(self.spm_sizes)
        data["results"] = list(self.results)
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "SweepResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(
            spm_sizes=tuple(data.get("spm_sizes", ())),
            results=tuple(data.get("results", ())),
            **_outcome_kwargs(data),
        )


@dataclass(frozen=True)
class ErrorResponse(_ResponseBase):
    """A request that produced no result (``status`` = ``failed``)."""

    status: str = "failed"

    kind = "error.response"

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ErrorResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(**_outcome_kwargs(data))


@dataclass(frozen=True)
class ShedResponse(_ResponseBase):
    """A request admission control refused (``status`` = ``shed``).

    Travels with HTTP 503 + a ``Retry-After`` header; the body mirrors
    the header so non-HTTP transports see the same hint.

    Attributes:
        reason: why admission refused — one of
            :data:`repro.serve.admission.SHED_REASONS` (``draining``
            or ``overload``).
        retry_after_s: how long the client should back off.
    """

    status: str = "shed"
    reason: str = "overload"
    retry_after_s: float = 1.0

    kind = "shed.response"

    def to_json(self) -> dict[str, Any]:
        """The full response as a JSON-able dict."""
        data = self._common_json()
        data["reason"] = self.reason
        data["retry_after_s"] = self.retry_after_s
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ShedResponse":
        """Decode a :meth:`to_json` payload (version-checked)."""
        _require_version(data)
        return cls(
            reason=data.get("reason", "overload"),
            retry_after_s=data.get("retry_after_s", 1.0),
            **_outcome_kwargs(data),
        )


#: Wire ``kind`` → response class, the client's decoding table.
RESPONSE_KINDS: dict[str, type] = {
    cls.kind: cls
    for cls in (SimulateResponse, ConflictGraphResponse,
                AllocateResponse, EvaluateResponse, SweepResponse,
                ErrorResponse, ShedResponse)
}


def response_from_json(data: dict[str, Any]):
    """Decode any response payload by its ``kind`` discriminator."""
    kind = data.get("kind")
    cls = RESPONSE_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown response kind {kind!r}; choose from "
            f"{', '.join(sorted(RESPONSE_KINDS))}"
        )
    return cls.from_json(data)
