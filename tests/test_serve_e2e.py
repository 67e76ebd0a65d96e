"""End-to-end tests of the serve daemon, batching and health."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.api import Session
from repro.serve.daemon import start_in_thread
from repro.serve.loadgen import run_load
from repro.serve.schema import EvaluateRequest, SimulateRequest
from repro.serve.service import AllocationService, ServiceConfig


def _service(**overrides) -> AllocationService:
    return AllocationService(ServiceConfig(**overrides))


def _get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _post(port: int, path: str, payload) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=60)
    try:
        body = payload if isinstance(payload, (bytes, str)) \
            else json.dumps(payload)
        connection.request("POST", path, body=body,
                           headers={"Content-Type":
                                    "application/json"})
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read())
    finally:
        connection.close()


class TestDaemonEndToEnd:
    """Concurrent mixed requests against an ephemeral-port daemon."""

    def test_mixed_load_has_no_failures(self):
        handle = start_in_thread(_service())
        try:
            report = run_load(handle.url, requests=12, workers=3,
                              workload="tiny", scale=0.2)
        finally:
            handle.stop()
        assert report.requests == 12
        assert report.failures == 0
        assert set(report.statuses) <= {"ok", "retried"}
        assert report.latency["count"] == 12
        assert report.rps > 0

    def test_verbs_round_trip_over_http(self):
        service = _service()
        handle = start_in_thread(service)
        try:
            status, data = _post(
                handle.port, "/v1/simulate",
                {"schema_version": 1, "workload": "tiny",
                 "scale": 0.2})
            assert status == 200 and data["status"] == "ok"
            assert data["report"]["kind"] == "simulation_report"

            status, data = _post(
                handle.port, "/v1/conflict_graph",
                {"schema_version": 1, "workload": "tiny",
                 "scale": 0.2})
            assert status == 200
            assert data["graph"]["kind"] == "conflict_graph"
            assert data["run_id"] == service.run_id

            status, data = _post(
                handle.port, "/v1/sweep",
                {"schema_version": 1, "workload": "tiny",
                 "scale": 0.2, "spm_sizes": [64, 128]})
            assert status == 200
            assert data["spm_sizes"] == [64, 128]
            assert len(data["results"]) == 2
        finally:
            handle.stop()

    def test_http_error_paths(self):
        handle = start_in_thread(_service())
        try:
            status, body = _get(handle.port, "/nowhere")
            assert status == 404
            status, _ = _get(handle.port, "/v1/simulate")
            assert status == 405
            status, data = _post(handle.port, "/v1/simulate",
                                 b"not json")
            assert status == 400
            assert data["kind"] == "error.response"
            assert data["error"]["type"] == "MalformedRequest"
            status, data = _post(handle.port, "/v1/simulate",
                                 {"workload": "tiny"})
            assert status == 400
            assert data["kind"] == "error.response"
            assert "schema_version" in data["error"]["message"]
            status, data = _post(
                handle.port, "/v1/simulate",
                {"schema_version": 1, "workload": "tiny",
                 "kind": "evaluate"})
            assert status == 400
            assert data["status"] == "failed"
        finally:
            handle.stop()

    def test_metrics_endpoint_exposes_serve_counters(self):
        handle = start_in_thread(_service())
        try:
            run_load(handle.url, requests=6, workers=2,
                     mix="simulate=1", workload="tiny", scale=0.2)
            status, body = _get(handle.port, "/metrics")
        finally:
            handle.stop()
        text = body.decode("utf-8")
        assert status == 200
        assert "repro_serve_requests_simulate_total" in text


class TestBatching:
    """Compatible concurrent requests coalesce into shared chunks."""

    def test_concurrent_evaluates_share_one_chunk(self):
        service = _service()
        service.start()
        # The upper sizes fit the whole working set, so their layouts
        # are identical and the shared chunk re-uses the compiled
        # stream's memoised probe expansion across capacity steps.
        axis = (256, 512, 1024)

        async def fire():
            requests = [
                EvaluateRequest("tiny", scale=0.2, spm_size=size)
                for size in axis
            ]
            return await asyncio.gather(
                *[service.handle(request) for request in requests])

        try:
            responses = asyncio.run(fire())
        finally:
            service.stop()
        assert all(r.status == "ok" for r in responses)
        results = [Session.from_response(r) for r in responses]
        assert len({r.allocation.capacity for r in results}) == len(axis)
        # All requests joined one group: one flush, N-1 coalesced.
        assert service.registry.value("serve.batch.coalesced") == \
            len(axis) - 1
        assert service.registry.value("serve.batch.flushes") == 1
        # The shared chunk replayed one probe stream across the axis.
        assert service.registry.value("sim.kernel.stream_reuse") > 0

    def test_incompatible_requests_do_not_coalesce(self):
        service = _service()
        service.start()

        async def fire():
            return await asyncio.gather(
                service.handle(EvaluateRequest("tiny", scale=0.2,
                                               spm_size=64)),
                service.handle(EvaluateRequest(
                    "tiny", scale=0.2, spm_size=64,
                    algorithm="steinke")),
            )

        try:
            responses = asyncio.run(fire())
        finally:
            service.stop()
        assert all(r.status == "ok" for r in responses)
        assert service.registry.value("serve.batch.coalesced") == 0


class TestResilience:
    """Fault-injected solves come back degraded-but-valid."""

    def test_injected_fault_yields_valid_response(self):
        service = _service(fault_spec="worker.exec:error@nth=1")
        service.start()
        try:
            response = asyncio.run(service.handle(
                EvaluateRequest("tiny", scale=0.2, spm_size=64)))
        finally:
            service.stop()
        assert response.status in ("retried", "degraded")
        assert response.attempts >= 2
        result = Session.from_response(response)
        assert result.energy.total > 0

    def test_bad_workload_becomes_error_response(self):
        service = _service()
        service.start()
        try:
            response = asyncio.run(service.handle(
                SimulateRequest("no-such-workload")))
        finally:
            service.stop()
        assert response.status == "failed"
        assert response.error is not None
        assert service.registry.value("serve.requests.failed") == 1


class TestHealth:
    """``/healthz`` flips to 503 while the executor is wedged on a unit."""

    @staticmethod
    def _wedged_probe(monkeypatch, owner, name, verb, payload):
        """Block *owner.name* on an event while *verb* runs; return the
        ``/healthz`` replies seen while wedged and after the release."""
        release = threading.Event()
        original = getattr(owner, name)

        def blocking(*args, **kwargs):
            release.wait(timeout=30.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, blocking)
        handle = start_in_thread(_service(stall_timeout=0.05))
        replies: dict[str, tuple[int, dict]] = {}
        caller = threading.Thread(
            target=lambda: replies.setdefault(
                "verb", _post(handle.port, f"/v1/{verb}", payload)))
        try:
            status, body = _get(handle.port, "/healthz")
            assert status == 200
            assert json.loads(body)["current"] is None
            caller.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                status, body = _get(handle.port, "/healthz")
                if status == 503:
                    break
                time.sleep(0.02)
            replies["wedged"] = (status, json.loads(body))
            release.set()
            caller.join(timeout=60.0)
            status, body = _get(handle.port, "/healthz")
            replies["released"] = (status, json.loads(body))
        finally:
            release.set()
            handle.stop()
        assert replies["verb"][0] == 200
        return replies["wedged"], replies["released"]

    def _assert_flips(self, wedged, released, label):
        status, body = wedged
        assert status == 503
        assert body["healthy"] is False and body["draining"] is False
        assert body["current"] == label
        assert body["busy_s"] >= 0.05
        assert body["run_id"]
        status, body = released
        assert status == 200
        assert body["healthy"] is True
        assert body["current"] is None

    def test_healthz_flips_on_stalled_worker(self, monkeypatch):
        """A wedged batched verb (``evaluate``) stalls the executor."""
        from repro.resilience import healing

        wedged, released = self._wedged_probe(
            monkeypatch, healing, "evaluate_chunk", "evaluate",
            {"schema_version": 1, "workload": "tiny", "scale": 0.2,
             "spm_size": 64})
        self._assert_flips(wedged, released, "tiny/casa@64")

    def test_healthz_flips_on_stalled_conflict_graph(self, monkeypatch):
        """The unbatched ``conflict_graph`` verb is watched too."""
        wedged, released = self._wedged_probe(
            monkeypatch, Session, "conflict_graph", "conflict_graph",
            {"schema_version": 1, "workload": "tiny", "scale": 0.2})
        self._assert_flips(wedged, released, "tiny/conflict_graph")


class TestTenantSharding:
    """Each tenant gets its own artifact-store shard."""

    def test_tenant_stores_are_distinct(self):
        service = _service()
        store_a = service.tenant_store("team-a")
        store_b = service.tenant_store("team-b")
        assert store_a is not store_b
        assert service.tenant_store("team-a") is store_a

    def test_disk_tenants_get_subdirectories(self, tmp_path):
        service = _service(store_backend="disk",
                           store_root=tmp_path)
        store = service.tenant_store("team-a")
        assert store.cache_dir == tmp_path / "team-a"

    def test_tenant_requests_fill_their_own_shard(self):
        service = _service()
        service.start()
        try:
            asyncio.run(service.handle(
                SimulateRequest("tiny", scale=0.2,
                                tenant="team-a")))
        finally:
            service.stop()
        filled, _ = service.tenant_store("team-a").memory_backend \
            .usage()
        assert filled > 0
        assert service.tenant_store("team-b").memory_backend \
            .usage() == (0, 0)


@pytest.mark.parametrize("verb", ["simulate", "allocate"])
def test_loadgen_single_verb_mixes(verb):
    handle = start_in_thread(_service())
    try:
        report = run_load(handle.url, requests=4, workers=2,
                          mix=f"{verb}=1", workload="tiny",
                          scale=0.2)
    finally:
        handle.stop()
    assert report.failures == 0
    assert report.requests == 4
