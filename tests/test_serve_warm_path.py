"""A warm request recomputes nothing its configuration or result fixes.

One cold pass of every verb fills the service's store and the digest
memos; a second, identical pass must then hash no digest, serialise no
experiment result or conflict graph and look up workload metadata at
most once per request (a request without a size reads its workload's
default axis), and must answer with JSON bodies byte-identical to the
cold pass.
"""

from __future__ import annotations

import asyncio
import json

from repro.engine import artifacts, runner
from repro.io import serde
from repro.serve import service as service_module
from repro.serve.schema import (
    AllocateRequest,
    ConflictGraphRequest,
    EvaluateRequest,
    SimulateRequest,
    SweepRequest,
)
from repro.serve.service import AllocationService, ServiceConfig
from repro.workloads import registry

#: Every verb on the tiny workload, defaults and explicit sizes mixed.
REQUESTS = (
    SimulateRequest("tiny", scale=0.2),
    ConflictGraphRequest("tiny", scale=0.2),
    AllocateRequest("tiny", scale=0.2),
    AllocateRequest("tiny", scale=0.2, algorithm="ross"),
    EvaluateRequest("tiny", scale=0.2, algorithm="steinke"),
    EvaluateRequest("tiny", scale=0.2, spm_size=128),
    EvaluateRequest("tiny", scale=0.2, algorithm="ross",
                    max_regions=2),
    SweepRequest("tiny", scale=0.2),
    SweepRequest("tiny", scale=0.2, algorithm="steinke",
                 spm_sizes=(128, 64)),
)


def _count_calls(monkeypatch, module, name: str, counts: dict) -> None:
    """Wrap ``module.name`` so each call bumps ``counts[name]``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _count_graph_serialisations(monkeypatch, counts: dict) -> None:
    """Count ``conflict_graph_to_dict`` calls wherever it is bound."""
    for module in (serde, service_module):
        if hasattr(module, "conflict_graph_to_dict"):
            _count_calls(monkeypatch, module, "conflict_graph_to_dict",
                         counts)


def _bodies(service: AllocationService) -> list[bytes]:
    """Each request answered alone, as the daemon encodes it."""
    bodies = []
    for request in REQUESTS:
        response = asyncio.run(service.handle(request))
        assert response.status == "ok", response
        bodies.append(json.dumps(response.to_json()).encode("utf-8"))
    return bodies


def test_warm_pass_recomputes_nothing_and_answers_identically(
        monkeypatch):
    service = AllocationService(ServiceConfig())
    service.start()
    try:
        cold = _bodies(service)
        counts: dict[str, int] = {}
        _count_calls(monkeypatch, artifacts, "digest_inputs", counts)
        _count_calls(monkeypatch, serde, "experiment_result_to_dict",
                     counts)
        _count_graph_serialisations(monkeypatch, counts)
        for module in (registry, runner, service_module):
            _count_calls(monkeypatch, module, "get_workload", counts)
        warm = _bodies(service)
    finally:
        service.stop()
    assert counts.get("digest_inputs", 0) == 0
    assert counts.get("experiment_result_to_dict", 0) == 0
    assert counts.get("conflict_graph_to_dict", 0) == 0
    assert counts.get("get_workload", 0) <= len(REQUESTS)
    assert warm == cold


def test_responses_share_one_payload_per_result():
    """Repeat answers reuse the memoised payloads, which stay as built."""
    request = SweepRequest("tiny", scale=0.2, spm_sizes=(64, 128))
    service = AllocationService(ServiceConfig())
    service.start()
    try:
        first = asyncio.run(service.handle(request))
        built = json.dumps(first.to_json())
        _bodies(service)
        again = asyncio.run(service.handle(request))
    finally:
        service.stop()
    assert all(a is b for a, b in zip(first.results, again.results))
    assert json.dumps(first.to_json()) == built


def test_warm_conflict_graph_request_serialises_nothing(monkeypatch):
    """The graph payload is memoised on its store entry."""
    request = ConflictGraphRequest("adpcm", scale=0.2, seed=3)
    service = AllocationService(ServiceConfig())
    service.start()
    try:
        cold = json.dumps(asyncio.run(service.handle(request)).to_json())
        counts: dict[str, int] = {}
        _count_graph_serialisations(monkeypatch, counts)
        warm = [json.dumps(asyncio.run(service.handle(request)).to_json())
                for _ in range(3)]
    finally:
        service.stop()
    assert counts.get("conflict_graph_to_dict", 0) == 0
    assert warm == [cold] * 3
