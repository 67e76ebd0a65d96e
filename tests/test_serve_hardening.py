"""Hardening-layer tests: admission, breakers, deadlines, drain.

The serve-chaos gate (:mod:`repro.serve.chaos`) proves the hardened
daemon survives a hostile world end to end; these tests pin the
individual mechanisms — circuit-breaker state transitions under an
injectable clock, admission accounting, deadline propagation, tenant
quota isolation, graceful drain and the adversarial client modes —
so a regression names the broken layer instead of failing the whole
gate.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

from repro.serve.admission import (
    SHED_BREAKER,
    SHED_DRAINING,
    SHED_OVERLOAD,
    SHED_TENANT,
    AdmissionController,
    AdmissionTicket,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.obs.metrics import MetricsRegistry
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


class _Clock:
    """A hand-cranked monotonic clock for breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


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


class TestCircuitBreaker:
    """State-machine transitions under an injectable clock."""

    def test_opens_at_threshold_and_sheds(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=3, window_s=10.0,
                                 cooldown_s=5.0, clock=clock)
        assert breaker.state == CLOSED
        for _ in range(2):
            assert breaker.allow()
            breaker.record(ok=False)
        assert breaker.state == CLOSED
        breaker.record(ok=False)
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_rolling_window_forgets_old_failures(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=3, window_s=10.0,
                                 clock=clock)
        breaker.record(ok=False)
        breaker.record(ok=False)
        clock.advance(11.0)  # both failures age out of the window
        breaker.record(ok=False)
        assert breaker.state == CLOSED

    def test_half_open_probe_success_closes(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record(ok=False)
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown not yet elapsed
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # one probe at a time
        breaker.record(ok=True)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=clock)
        breaker.record(ok=False)
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record(ok=False)
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert not breaker.allow()  # cooldown restarted

    def test_stale_outcome_cannot_close_an_open_breaker(self):
        clock = _Clock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=clock)
        assert breaker.allow()  # admitted before the failures landed
        breaker.record(ok=False)
        assert breaker.state == OPEN
        breaker.record(ok=True)  # the stale straggler resolves late
        assert breaker.state == OPEN

    def test_threshold_zero_disables_the_breaker(self):
        breaker = CircuitBreaker(threshold=0, clock=_Clock())
        for _ in range(50):
            assert breaker.allow()
            breaker.record(ok=False)
        assert breaker.state == CLOSED


class TestAdmissionController:
    """Gate ordering, accounting and release bookkeeping."""

    def _controller(self, **overrides) -> AdmissionController:
        defaults = dict(max_inflight=2)
        defaults.update(overrides)
        return AdmissionController(MetricsRegistry(), **defaults)

    def test_max_inflight_sheds_overload(self):
        controller = self._controller(max_inflight=2)
        first = controller.try_admit("evaluate", "default")
        second = controller.try_admit("evaluate", "default")
        assert isinstance(first, AdmissionTicket)
        assert isinstance(second, AdmissionTicket)
        assert controller.try_admit("evaluate", "default") \
            == SHED_OVERLOAD
        first.release(ok=True)
        assert isinstance(
            controller.try_admit("evaluate", "default"),
            AdmissionTicket)
        registry = controller.registry
        assert registry.value("serve.shed.total") == 1
        assert registry.value("serve.shed.overload") == 1
        assert registry.value("serve.shed.verb.evaluate") == 1

    def test_tenant_quota_isolates_tenants(self):
        controller = self._controller(max_inflight=0, tenant_quota=1)
        ticket = controller.try_admit("evaluate", "team-a")
        assert isinstance(ticket, AdmissionTicket)
        assert controller.try_admit("evaluate", "team-a") \
            == SHED_TENANT
        # A noisy neighbor must not consume team-b's quota.
        assert isinstance(controller.try_admit("evaluate", "team-b"),
                          AdmissionTicket)
        ticket.release(ok=True)
        assert isinstance(controller.try_admit("evaluate", "team-a"),
                          AdmissionTicket)

    def test_drain_sheds_everything(self):
        controller = self._controller()
        controller.begin_drain()
        assert controller.try_admit("evaluate", "default") \
            == SHED_DRAINING
        assert controller.registry.value("serve.shed.draining") == 1

    def test_open_breaker_sheds_before_concurrency(self):
        clock = _Clock()
        controller = self._controller(max_inflight=1,
                                      breaker_threshold=1,
                                      clock=clock)
        ticket = controller.try_admit("evaluate", "default")
        ticket.release(ok=False)  # threshold=1: breaker opens
        assert controller.try_admit("evaluate", "default") \
            == SHED_BREAKER
        assert controller.registry.value("serve.breaker.opens") == 1
        # Other verbs keep their own (closed) breakers.
        assert isinstance(controller.try_admit("simulate", "default"),
                          AdmissionTicket)

    def test_release_is_idempotent(self):
        controller = self._controller(max_inflight=1)
        ticket = controller.try_admit("evaluate", "default")
        ticket.release(ok=True)
        ticket.release(ok=True)
        assert controller.inflight == 0

    def test_probe_rollback_on_post_breaker_shed(self):
        clock = _Clock()
        controller = self._controller(max_inflight=1,
                                      breaker_threshold=1,
                                      breaker_cooldown_s=1.0,
                                      clock=clock)
        failing = controller.try_admit("evaluate", "default")
        failing.release(ok=False)  # opens the evaluate breaker
        # A different verb (its breaker is closed) occupies the only
        # inflight slot while evaluate's cooldown elapses.
        blocker = controller.try_admit("simulate", "default")
        assert isinstance(blocker, AdmissionTicket)
        clock.advance(1.1)
        # Half-open probe admitted by the breaker but shed by the
        # inflight gate: the probe slot must be returned, or the
        # breaker would wait forever for an outcome that never comes.
        assert controller.try_admit("evaluate", "default") \
            == SHED_OVERLOAD
        blocker.release(ok=True)
        assert isinstance(controller.try_admit("evaluate", "default"),
                          AdmissionTicket)


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


class TestServiceHardening:
    """The mechanisms wired into a live service (no HTTP)."""

    def test_breaker_opens_closes_end_to_end(self):
        # A bad workload is the deterministic way to produce genuine
        # ``failed`` responses: injected solver faults are healed into
        # retried/degraded answers by design, and those must never
        # trip a breaker.
        service = _service(breaker_threshold=2,
                           breaker_cooldown_s=0.05)
        service.start()
        try:
            async def scenario():
                for _ in range(2):
                    response = await service.handle(
                        SimulateRequest("no-such-workload"))
                    assert response.status == "failed"
                shed = await service.handle(
                    SimulateRequest("no-such-workload"))
                assert shed.status == "shed"
                assert shed.reason == SHED_BREAKER
                await asyncio.sleep(0.08)  # cooldown elapses
                probe = await service.handle(
                    SimulateRequest("tiny", scale=0.2))
                assert probe.status == "ok"
                again = await service.handle(
                    SimulateRequest("tiny", scale=0.2))
                assert again.status == "ok"

            asyncio.run(scenario())
        finally:
            service.stop()
        assert service.registry.value("serve.breaker.opens") == 1
        assert service.registry.value("serve.shed.breaker") == 1
        state = service.registry.snapshot()[
            "serve.breaker.state.simulate"]
        assert state["value"] == 0  # closed again

    def test_healed_faults_do_not_trip_the_breaker(self):
        service = _service(breaker_threshold=1,
                           fault_spec="worker.exec:error@nth=1")
        service.start()
        try:
            response = asyncio.run(service.handle(
                EvaluateRequest("tiny", scale=0.2, spm_size=64)))
        finally:
            service.stop()
        assert response.status in ("retried", "degraded")
        assert service.registry.value("serve.breaker.opens") == 0

    def test_tenant_quota_isolation_under_concurrency(self):
        service = _service(tenant_quota=1)
        service.start()

        async def scenario():
            return await asyncio.gather(
                service.handle(EvaluateRequest(
                    "tiny", scale=0.2, spm_size=64, tenant="team-a")),
                service.handle(EvaluateRequest(
                    "tiny", scale=0.2, spm_size=128, tenant="team-a")),
                service.handle(EvaluateRequest(
                    "tiny", scale=0.2, spm_size=64, tenant="team-b")),
            )

        try:
            first, second, other = asyncio.run(scenario())
        finally:
            service.stop()
        assert first.status == "ok"
        assert second.status == "shed"
        assert second.reason == SHED_TENANT
        assert other.status == "ok"  # team-b unaffected

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
        service = _service(retry_after_s=2.0)
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
        assert headers.get("retry-after") == "2"

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
