"""Hardening-layer tests: admission, validation, deadlines, drain.

The serve-chaos gate (:mod:`repro.serve.chaos`) proves the hardened
daemon survives a hostile world end to end; these tests pin the
individual mechanisms — admission accounting, request validation at
the edge, deadline propagation, graceful drain and the adversarial
client modes — so a regression names the broken layer instead of
failing the whole gate.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import (
    SHED_DRAINING,
    SHED_OVERLOAD,
    SHED_REASONS,
    AdmissionController,
    AdmissionTicket,
)
from repro.serve.chaos import _Daemon
from repro.serve.daemon import start_in_thread
from repro.serve.loadgen import run_adversarial, run_load
from repro.serve.schema import (
    SCHEMA_VERSION,
    EvaluateRequest,
    ShedResponse,
    SimulateRequest,
    request_from_json,
    response_from_json,
)
from repro.serve.service import AllocationService, ServiceConfig


def _service(**overrides) -> AllocationService:
    return AllocationService(ServiceConfig(**overrides))


def _post(port: int, path: str, payload) -> tuple[int, dict, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=60)
    try:
        body = payload if isinstance(payload, (bytes, str)) \
            else json.dumps(payload)
        connection.request("POST", path, body=body,
                           headers={"Content-Type":
                                    "application/json"})
        reply = connection.getresponse()
        headers = {name.lower(): value
                   for name, value in reply.getheaders()}
        return reply.status, json.loads(reply.read()), headers
    finally:
        connection.close()


class TestAdmissionController:
    """Gate ordering, accounting and release bookkeeping."""

    def _controller(self, **overrides) -> AdmissionController:
        defaults = dict(max_inflight=2)
        defaults.update(overrides)
        return AdmissionController(MetricsRegistry(), **defaults)

    def test_max_inflight_sheds_overload(self):
        controller = self._controller(max_inflight=2)
        first = controller.try_admit("evaluate")
        second = controller.try_admit("evaluate")
        assert isinstance(first, AdmissionTicket)
        assert isinstance(second, AdmissionTicket)
        assert controller.try_admit("evaluate") == SHED_OVERLOAD
        first.release()
        assert isinstance(controller.try_admit("evaluate"),
                          AdmissionTicket)
        registry = controller.registry
        assert registry.value("serve.shed.total") == 1
        assert registry.value("serve.shed.overload") == 1
        assert registry.value("serve.shed.verb.evaluate") == 1

    def test_drain_sheds_everything(self):
        controller = self._controller()
        controller.begin_drain()
        assert controller.try_admit("evaluate") == SHED_DRAINING
        assert controller.registry.value("serve.shed.draining") == 1

    def test_drain_and_overload_are_the_only_gates(self):
        assert SHED_REASONS == (SHED_DRAINING, SHED_OVERLOAD)

    def test_release_is_idempotent(self):
        controller = self._controller(max_inflight=1)
        ticket = controller.try_admit("evaluate")
        ticket.release()
        ticket.release()
        assert controller.inflight == 0


class TestSchemaV2:
    """Wire-compatibility of the hardening additions."""

    def test_deadline_round_trips(self):
        request = EvaluateRequest("tiny", scale=0.2, deadline_ms=250)
        decoded = request_from_json(request.to_json())
        assert decoded.deadline_ms == 250

    def test_v1_payloads_still_decode(self):
        payload = SimulateRequest("tiny", scale=0.2).to_json()
        payload["schema_version"] = 1
        decoded = request_from_json(payload)
        assert decoded.workload == "tiny"
        assert decoded.deadline_ms is None
        assert SCHEMA_VERSION == 2

    def test_shed_response_round_trips(self):
        response = ShedResponse(reason="overload", retry_after_s=2.5)
        decoded = response_from_json(response.to_json())
        assert decoded.status == "shed"
        assert decoded.reason == "overload"
        assert decoded.retry_after_s == 2.5


#: Tenant names that are paths, empty or hidden: a tenant names a
#: directory under a disk store's root, so each must be refused.
BAD_TENANTS = ("../escape", "/abs", "a/b", "", ".hidden")


class TestRequestValidation:
    """Client mistakes are refused at the edge, before admission."""

    @pytest.mark.parametrize("tenant", BAD_TENANTS)
    def test_tenant_must_be_a_plain_name(self, tenant):
        payload = SimulateRequest("tiny", scale=0.2).to_json()
        payload["tenant"] = tenant
        with pytest.raises(ConfigurationError, match="tenant"):
            request_from_json(payload)

    def test_tenant_path_cannot_escape_the_disk_root(self, tmp_path):
        root = tmp_path / "root"
        # The absolute tenant points inside tmp_path, so even a
        # regression writes nowhere else.
        tenants = [tenant for tenant in BAD_TENANTS
                   if not tenant.startswith("/")]
        tenants.append(str(tmp_path / "abs"))
        service = _service(store_backend=f"disk:{root}")
        handle = start_in_thread(service)
        try:
            refused = [
                _post(handle.port, "/v1/simulate",
                      {"schema_version": 2, "workload": "tiny",
                       "scale": 0.2, "tenant": tenant})
                for tenant in tenants
            ]
            status, data, _ = _post(
                handle.port, "/v1/simulate",
                {"schema_version": 2, "workload": "tiny",
                 "scale": 0.2, "tenant": "alice"})
        finally:
            handle.stop()
        for code, body, _ in refused:
            assert code == 400
            assert body["error"]["type"] == "ConfigurationError"
        assert (status, data["status"]) == (200, "ok")
        assert [path.name for path in tmp_path.iterdir()] == ["root"]
        assert [path.name for path in root.iterdir()] == ["alice"]

    def test_unknown_workload_is_a_client_error(self):
        service = _service()
        handle = start_in_thread(service)
        try:
            status, data, _ = _post(
                handle.port, "/v1/simulate",
                {"schema_version": 2, "workload": "no-such-workload"})
        finally:
            handle.stop()
        assert status == 400
        assert data["kind"] == "error.response"
        assert data["error"]["type"] == "WorkloadError"
        assert service.registry.value("serve.requests.failed") == 0


class TestServiceHardening:
    """The mechanisms wired into a live service (no HTTP)."""

    def test_deadline_expires_in_queue(self):
        service = _service()
        service.start()

        async def scenario():
            # A deadline-free blocker's batch occupies the executor,
            # so the 1 ms request queues behind it and expires there.
            blocker = asyncio.ensure_future(service.handle(
                EvaluateRequest("tiny", scale=0.2, spm_size=64)))
            while not service.registry.value("serve.batch.flushes"):
                await asyncio.sleep(0)
            response = await service.handle(EvaluateRequest(
                "tiny", scale=0.2, spm_size=64, deadline_ms=1))
            assert (await blocker).status == "ok"
            return response

        try:
            response = asyncio.run(scenario())
        finally:
            service.stop()
        assert response.status == "deadline_exceeded"
        assert response.error["type"] == "DeadlineExceeded"
        assert response.error["site"] == "serve.queue"
        assert service.registry.value("serve.deadline.exceeded") == 1
        assert service.registry.value(
            "serve.deadline.expired_in_queue") == 1

    def test_generous_deadline_is_met(self):
        service = _service()
        service.start()
        try:
            response = asyncio.run(service.handle(EvaluateRequest(
                "tiny", scale=0.2, spm_size=64, deadline_ms=60_000)))
        finally:
            service.stop()
        assert response.status == "ok"

    def test_drain_flips_readiness_then_finishes_inflight(self):
        service = _service()
        service.start()

        async def scenario():
            inflight = asyncio.ensure_future(service.handle(
                EvaluateRequest("tiny", scale=0.2, spm_size=64)))
            await asyncio.sleep(0.02)  # let it enter the batcher
            service.begin_drain()
            assert service.readyz() is False
            healthy, _ = service.healthz()
            assert healthy is False
            late = await service.handle(
                EvaluateRequest("tiny", scale=0.2, spm_size=128))
            assert late.status == "shed"
            assert late.reason == SHED_DRAINING
            assert await service.drain(timeout_s=30.0) is True
            return await inflight

        try:
            response = asyncio.run(scenario())
        finally:
            service.stop()
        assert response.status == "ok"
        assert service.admission.inflight == 0

    def test_metrics_text_exports_gauges(self):
        service = _service()
        service.start()
        try:
            asyncio.run(service.handle(
                SimulateRequest("tiny", scale=0.2)))
            text = service.metrics_text()
        finally:
            service.stop()
        assert "repro_serve_inflight 0" in text


class TestDaemonHardening:
    """HTTP-visible behavior: sheds, 400s, adversarial clients."""

    def test_shed_is_503_with_retry_after(self):
        service = _service()
        handle = start_in_thread(service)
        try:
            service.begin_drain()
            status, data, headers = _post(
                handle.port, "/v1/simulate",
                {"schema_version": 2, "workload": "tiny",
                 "scale": 0.2})
        finally:
            handle.stop()
        assert status == 503
        assert data["kind"] == "shed.response"
        assert data["status"] == "shed"
        assert data["reason"] == SHED_DRAINING
        assert headers.get("retry-after") == "1"

    def test_oversized_body_gets_structured_400(self):
        handle = start_in_thread(_service(), max_body_bytes=256)
        try:
            status, data, _ = _post(handle.port, "/v1/simulate",
                                    b"x" * 512)
        finally:
            handle.stop()
        assert status == 400
        assert data["kind"] == "error.response"
        assert data["error"]["type"] == "OversizedBody"

    def test_adversarial_modes_are_absorbed(self):
        service = _service()
        handle = start_in_thread(service, client_timeout_s=0.3)
        try:
            malformed = run_adversarial(handle.url, "malformed",
                                        count=2)
            unknown = run_adversarial(handle.url, "unknown_verb",
                                      count=2)
            slow = run_adversarial(handle.url, "slowloris", count=1,
                                   timeout_s=5.0)
            disconnect = run_adversarial(handle.url, "disconnect",
                                         count=2)
            time.sleep(0.4)  # let disconnect bookkeeping land
            # The daemon is still perfectly serviceable afterwards.
            report = run_load(handle.url, requests=4, workers=2,
                              workload="tiny", scale=0.2)
        finally:
            handle.stop()
        assert malformed["structured_400"] == 2
        assert unknown["structured_400"] == 2
        assert slow["closed_by_server"] == 1
        assert disconnect["sent"] == 2
        assert service.registry.value("serve.client_disconnects") >= 2
        assert service.registry.value("serve.client_timeouts") >= 1
        assert report.failures == 0

    def test_deadline_storm_over_http(self):
        service = _service()
        handle = start_in_thread(service)
        try:
            tally = run_adversarial(handle.url, "deadline_storm",
                                    count=4, deadline_ms=1)
        finally:
            handle.stop()
        assert tally["deadline_exceeded"] == 4
        assert tally["blocker"] == "ok"
        assert tally["failures"] == 0
        assert tally["resets"] == 0

    def test_drain_under_load_sees_no_resets(self):
        service = _service()
        handle = start_in_thread(service)
        box = {}

        def loader():
            box["report"] = run_load(handle.url, requests=8,
                                     workers=2, mix="evaluate=1",
                                     workload="tiny", scale=0.2)

        thread = threading.Thread(target=loader)
        try:
            thread.start()
            time.sleep(0.05)  # let requests get in flight
            assert handle.drain(timeout_s=30.0) is True
            thread.join(timeout=60)
            assert not thread.is_alive()
        finally:
            handle.stop()
        report = box["report"]
        assert report.resets == 0
        assert report.failures == 0
        # Everything either completed or was cleanly shed.
        done = sum(count for label, count in report.statuses.items()
                   if label in ("ok", "retried", "degraded", "shed"))
        assert done == report.requests


class TestDaemonDefaults:
    """A real ``repro serve`` subprocess with its default flags."""

    def test_one_tenant_cannot_shed_another(self):
        daemon = _Daemon([])
        try:
            for _ in range(5):
                _post(daemon.port, "/v1/simulate",
                      {"schema_version": 2,
                       "workload": "no-such-workload",
                       "tenant": "mallory"})
            status, data, _ = _post(
                daemon.port, "/v1/simulate",
                {"schema_version": 2, "workload": "tiny",
                 "scale": 0.2, "tenant": "alice"})
        finally:
            daemon.terminate_and_wait()
        assert (status, data["status"]) == (200, "ok")
