"""Allocation-as-a-service: the ``repro serve`` daemon stack.

Layers, bottom up:

* :mod:`repro.serve.schema` — versioned wire request/response
  dataclasses (the canonical public API of the Session verbs);
* :mod:`repro.serve.batching` — the micro-batching queue coalescing
  compatible requests queued behind a running batch into shared grid
  chunks;
* :mod:`repro.serve.admission` — the admission controller: drain,
  then a global max-in-flight bound, shedding with structured 503s;
* :mod:`repro.serve.service` — :class:`AllocationService`, which runs
  admitted batches through the resilience layer over tenant-sharded
  artifact stores, propagating per-request deadlines;
* :mod:`repro.serve.daemon` — the asyncio HTTP/JSON listener with
  ``/healthz``, ``/readyz`` and ``/metrics``, graceful drain and
  adversarial-client defenses;
* :mod:`repro.serve.loadgen` — the closed-loop load generator (and
  adversarial client modes) behind ``scripts/loadgen.py`` and the
  smoke gates;
* :mod:`repro.serve.chaos` — the ``repro serve-chaos`` differential
  gate: overload, adversarial clients and drain against a real
  daemon subprocess.
"""

from repro.serve.admission import (
    SHED_REASONS,
    AdmissionController,
    AdmissionTicket,
)
from repro.serve.batching import MicroBatcher
from repro.serve.daemon import (
    DaemonHandle,
    ServeDaemon,
    run_daemon,
    start_in_thread,
)
from repro.serve.loadgen import (
    LoadReport,
    parse_mix,
    run_adversarial,
    run_load,
)
from repro.serve.schema import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    AllocateRequest,
    AllocateResponse,
    ConflictGraphRequest,
    ConflictGraphResponse,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    ShedResponse,
    SimulateRequest,
    SimulateResponse,
    SweepRequest,
    SweepResponse,
    request_from_json,
    response_from_json,
)
from repro.serve.service import AllocationService, ServiceConfig

__all__ = [
    "SHED_REASONS",
    "AdmissionController",
    "AdmissionTicket",
    "MicroBatcher",
    "DaemonHandle",
    "ServeDaemon",
    "run_daemon",
    "start_in_thread",
    "LoadReport",
    "parse_mix",
    "run_adversarial",
    "run_load",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "AllocateRequest",
    "AllocateResponse",
    "ConflictGraphRequest",
    "ConflictGraphResponse",
    "ErrorResponse",
    "EvaluateRequest",
    "EvaluateResponse",
    "ShedResponse",
    "SimulateRequest",
    "SimulateResponse",
    "SweepRequest",
    "SweepResponse",
    "request_from_json",
    "response_from_json",
    "AllocationService",
    "ServiceConfig",
]
