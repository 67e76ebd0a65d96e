"""The allocation service: batched solves over tenant-sharded stores.

:class:`AllocationService` is the daemon's engine-facing half, usable
without any HTTP in front of it (the benches and tests drive it
directly).  It owns:

* a :class:`~repro.serve.batching.MicroBatcher` that coalesces
  compatible requests queued while the executor is busy into
  :class:`~repro.engine.grid.GridChunk` work units (it never waits
  for more requests);
* a single-threaded executor on which batches run through
  :func:`~repro.resilience.healing.map_points_healed` — the resilience
  layer's retry/timeout/degradation ladders apply to every request,
  and its per-outcome status/attempts/error records flow back into
  the response envelopes;
* one :class:`~repro.engine.store.ArtifactStore` per ``tenant`` —
  built from a backend spec string (see
  :func:`~repro.engine.store.make_backend`) and swapped in as the
  process default around each tenant's batch, so tenants never share
  cache entries;
* the liveness of its executor — the unit it runs or waits on, and
  since when — behind the daemon's ``/healthz``, and a private
  :class:`~repro.obs.metrics.MetricsRegistry` behind ``/metrics``,
  correlated by one ``run_id`` in the structured run log.

The hardening layer sits in front of all of that: every request first
passes the :class:`~repro.serve.admission.AdmissionController` (drain,
then the max-in-flight bound; refusals become
:class:`~repro.serve.schema.ShedResponse`), and an admitted
request's optional ``deadline_ms`` budget is tracked from admission —
requests that expire while queued in the micro-batcher are answered
``deadline_exceeded`` without ever touching a worker, and when every
live member of a batch carries a deadline the batch's
:class:`~repro.resilience.healing.RetryPolicy` timeout is tightened
to the nearest one.

Service metrics: ``serve.requests.<verb>``, ``serve.requests.total``,
``serve.requests.failed``, ``serve.request.seconds``,
``serve.batch.*`` (see :mod:`repro.serve.batching`),
``serve.shed.*``/``serve.inflight`` (see
:mod:`repro.serve.admission`) and ``serve.deadline.*`` (below).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Hashable

from repro.api import Session
from repro.engine.grid import GridChunk
from repro.engine.store import ArtifactStore, set_default_store
from repro.io.serde import conflict_graph_payload, experiment_result_payload
from repro.obs.logging import RunLog, log_event, new_run_id, set_run_log
from repro.obs.metrics import MetricsRegistry, render_prometheus, \
    set_registry
from repro.resilience.faults import FaultPlan, set_fault_plan
from repro.resilience.healing import (
    HealedRun,
    PointOutcome,
    RetryPolicy,
    map_points_healed,
)
from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    RETRY_AFTER_S,
    AdmissionController,
    AdmissionTicket,
)
from repro.serve.batching import Group, MicroBatcher
from repro.serve.schema import (
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
)
from repro.workloads.registry import get_workload

#: Placeholder capacity carried by pure-simulate chunks (the baseline
#: algorithm returns one result per axis entry and ignores the value).
BASELINE_SIZE = 0


@dataclass
class _Pending:
    """One admitted request travelling through the micro-batcher.

    Attributes:
        request: the wire request.
        deadline: absolute :func:`time.monotonic` expiry derived from
            the request's ``deadline_ms`` at admission (``None`` = no
            deadline).
        sizes: the capacities the request needs out of its group's
            chunk, fixed at admission (see
            :meth:`AllocationService._request_sizes`).
    """

    request: Any
    deadline: float | None = None
    sizes: tuple[int, ...] = ()

    def expired(self, now: float | None = None) -> bool:
        """Whether the deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) \
            >= self.deadline

    def remaining(self, now: float) -> float:
        """Seconds of budget left (``inf`` without a deadline)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - now


@dataclass
class ServiceConfig:
    """Tunables of one :class:`AllocationService`.

    Attributes:
        jobs: worker processes for multi-chunk batches (``<= 1`` runs
            solves serially on the executor thread).
        store_backend: backend spec for tenant stores —
            ``"memory[:bytes]"``, ``"disk[:root]"`` or a registered
            backend name (default in-memory).  A ``disk`` spec's path
            is the *root*; each tenant gets ``root/<tenant>/``.
        store_root: root directory for ``disk`` tenant stores when
            the spec names none.
        retry: per-work-unit retry/timeout policy.
        stall_timeout: seconds the executor may spend on one unit — a
            batch's grid chunk or a conflict-graph profile — before
            ``/healthz`` reports it stalled.
        fault_spec: optional fault-injection plan installed for the
            service's lifetime (chaos tests).
        log_path: optional structured-log (JSONL) path; events carry
            the service's ``run_id``.
        max_inflight: admission bound on concurrently admitted
            requests (``<= 0`` = unbounded).
    """

    jobs: int = 1
    store_backend: str | None = None
    store_root: str | os.PathLike | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    stall_timeout: float = 30.0
    fault_spec: str | None = None
    log_path: str | None = None
    max_inflight: int = DEFAULT_MAX_INFLIGHT


class AllocationService:
    """Session verbs as a long-running, batching, multi-tenant service.

    Lifecycle: :meth:`start` installs the service's registry, optional
    fault plan and optional run log as the process-wide active
    instruments (returning the previous ones to :meth:`stop`);
    the HTTP daemon (:mod:`repro.serve.daemon`) then feeds
    :meth:`handle` from its event loop.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.run_id = new_run_id()
        self.registry = MetricsRegistry()
        # (unit, monotonic start) of what the executor runs or waits
        # on; written by the executor thread only, read by /healthz.
        self._current: tuple[Any, float] | None = None
        self.batcher = MicroBatcher(self._execute_groups_async,
                                    registry=self.registry)
        self.admission = AdmissionController(
            self.registry, max_inflight=self.config.max_inflight)
        self._stores: dict[str, ArtifactStore] = {}
        self._store_lock = threading.Lock()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-exec")
        self._started = False
        self._previous: dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Install the service's instruments process-wide (idempotent)."""
        if self._started:
            return
        self._previous["registry"] = set_registry(self.registry)
        if self.config.fault_spec:
            self._previous["plan"] = set_fault_plan(
                FaultPlan.from_spec(self.config.fault_spec))
        if self.config.log_path:
            self._previous["log"] = set_run_log(
                RunLog(self.config.log_path, run_id=self.run_id,
                       source="serve"))
        self._started = True
        log_event("serve.start", jobs=self.config.jobs,
                  backend=self.config.store_backend or "memory")

    def stop(self) -> None:
        """Restore the previous instruments and drain the executor."""
        if not self._started:
            return
        log_event("serve.stop")
        self._executor.shutdown(wait=True)
        set_registry(self._previous.get("registry"))
        if "plan" in self._previous:
            set_fault_plan(self._previous["plan"])
        if "log" in self._previous:
            set_run_log(self._previous["log"])
        self._previous = {}
        self._started = False

    # -- tenant stores --------------------------------------------------------

    def tenant_store(self, tenant: str) -> ArtifactStore:
        """The artifact store shard of *tenant* (created on first use)."""
        with self._store_lock:
            store = self._stores.get(tenant)
            if store is None:
                store = self._make_tenant_store(tenant)
                self._stores[tenant] = store
            return store

    def _make_tenant_store(self, tenant: str) -> ArtifactStore:
        spec = self.config.store_backend or "memory"
        name, _, arg = spec.partition(":")
        if name == "disk":
            root = Path(arg or self.config.store_root or ".casa_cache")
            return ArtifactStore(backend=f"disk:{root / tenant}")
        return ArtifactStore(backend=spec)

    @contextmanager
    def _using_store(self, tenant: str):
        """Swap the process default store to *tenant*'s for a batch."""
        previous = set_default_store(self.tenant_store(tenant))
        try:
            yield
        finally:
            set_default_store(previous)

    # -- request handling -----------------------------------------------------

    async def handle(self, request) -> Any:
        """Answer one request; never raises (failures become responses).

        The request first passes admission control — a refusal is
        answered with a :class:`ShedResponse` (the daemon maps it to
        503 + ``Retry-After``) without entering the batcher.  Admitted
        requests hold their :class:`AdmissionTicket` until the
        response is ready.
        """
        verb = type(request).kind
        self.registry.counter(f"serve.requests.{verb}").inc()
        self.registry.counter("serve.requests.total").inc()
        started = time.perf_counter()
        admitted = self.admission.try_admit(verb)
        if isinstance(admitted, str):
            self.registry.histogram("serve.request.seconds").observe(
                time.perf_counter() - started)
            return ShedResponse(reason=admitted,
                                retry_after_s=RETRY_AFTER_S,
                                run_id=self.run_id)
        ticket: AdmissionTicket = admitted
        try:
            response = await self._dispatch(request)
        except Exception as error:  # contained: reported per request
            self.registry.counter("serve.errors").inc()
            response = ErrorResponse(
                error={"type": type(error).__name__,
                       "message": str(error),
                       "site": str(getattr(error, "site", ""))},
                attempts=1, run_id=self.run_id,
            )
        finally:
            ticket.release()
        if response.status == "failed":
            self.registry.counter("serve.requests.failed").inc()
        elif response.status == "deadline_exceeded":
            self.registry.counter("serve.deadline.exceeded").inc()
        self.registry.histogram("serve.request.seconds").observe(
            time.perf_counter() - started)
        return response

    async def _dispatch(self, request) -> Any:
        """Route one admitted request to its execution path."""
        deadline = self._deadline_of(request)
        if isinstance(request, ConflictGraphRequest):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._executor, self._run_conflict_graph,
                _Pending(request, deadline))
        return await self.batcher.submit(
            self._compat_key(request),
            _Pending(request, deadline, self._request_sizes(request)))

    @staticmethod
    def _deadline_of(request) -> float | None:
        """Absolute monotonic expiry of a request's ``deadline_ms``."""
        deadline_ms = getattr(request, "deadline_ms", None)
        if deadline_ms is None:
            return None
        return time.monotonic() + deadline_ms / 1000.0

    def _deadline_response(self, pending: _Pending,
                           queued: bool) -> ErrorResponse:
        """The ``deadline_exceeded`` answer for one expired request."""
        if queued:
            self.registry.counter(
                "serve.deadline.expired_in_queue").inc()
        site = "serve.queue" if queued else "serve.execute"
        return ErrorResponse(
            status="deadline_exceeded",
            error={"type": "DeadlineExceeded",
                   "message": "request deadline_ms budget exhausted",
                   "site": site},
            run_id=self.run_id,
        )

    @staticmethod
    def _compat_key(request) -> Hashable:
        """The batching key: requests sharing it solve as one chunk."""
        algorithm = getattr(request, "algorithm", "baseline")
        if isinstance(request, SimulateRequest):
            algorithm = "baseline"
        return (
            request.tenant, request.workload, request.scale,
            request.seed, request.cache, request.tracegen,
            request.backend, algorithm,
            getattr(request, "max_regions", 4),
        )

    # -- batch execution (executor thread) ------------------------------------

    async def _execute_groups_async(
            self, groups: list[Group]) -> list[list[Any]]:
        """Run the drained groups on the service executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._execute_groups, groups)

    def _execute_groups(self, groups: list[Group]) -> list[list[Any]]:
        """Solve every group, one tenant at a time, one chunk per group.

        Groups of the same tenant share one
        :func:`~repro.resilience.healing.map_points_healed` call (and
        its process pool when ``jobs > 1``); each group becomes one
        grid chunk whose capacity axis merges every member request's
        sizes.

        Deadline handling happens here, at the queue/execute seam:
        members whose budget already ran out while queued are answered
        ``deadline_exceeded`` without contributing to the chunk, and
        when *every* surviving member of a tenant's batch carries a
        deadline the batch's retry policy timeout is tightened to the
        nearest remaining budget (``serve.deadline.applied``) — a
        mixed batch keeps the configured timeout so deadline-free
        members' work is never killed early.
        """
        now = time.monotonic()
        by_tenant: dict[str, list[int]] = {}
        for index, (key, _) in enumerate(groups):
            by_tenant.setdefault(key[0], []).append(index)
        responses: list[list[Any] | None] = [None] * len(groups)
        for tenant, indexes in by_tenant.items():
            chunks = []
            axes = []
            live_indexes = []
            live_members: list[_Pending] = []
            for index in indexes:
                key, members = groups[index]
                live = [m for m in members if not m.expired(now)]
                if not live:
                    responses[index] = [
                        self._deadline_response(m, queued=True)
                        for m in members
                    ]
                    continue
                chunk, axis = self._build_chunk(key, live)
                chunks.append(chunk)
                axes.append(axis)
                live_indexes.append(index)
                live_members.extend(live)
            if not chunks:
                continue
            policy = self._policy_for(live_members, now)
            with self._using_store(tenant):
                run: HealedRun = map_points_healed(
                    chunks, jobs=self.config.jobs,
                    policy=policy, on_unit=self._mark_unit,
                )
            for outcome, index, axis in zip(run.outcomes,
                                            live_indexes, axes):
                _, members = groups[index]
                responses[index] = [
                    self._member_response(member, outcome, axis, now)
                    for member in members
                ]
        return [entries if entries is not None else []
                for entries in responses]

    def _policy_for(self, members: list[_Pending],
                    now: float) -> RetryPolicy:
        """The retry policy of one tenant batch, deadline-tightened.

        Only when every member carries a deadline: the batch timeout
        becomes the smallest remaining budget (floored at 1 ms so an
        about-to-expire member still fails through the normal timeout
        path rather than a zero timeout).
        """
        policy = self.config.retry
        if any(member.deadline is None for member in members):
            return policy
        budget = max(0.001,
                     min(member.remaining(now) for member in members))
        if policy.timeout_s is not None \
                and policy.timeout_s <= budget:
            return policy
        self.registry.counter("serve.deadline.applied").inc()
        return replace(policy, timeout_s=budget)

    def _member_response(self, member: _Pending,
                         outcome: PointOutcome,
                         axis: tuple[int, ...], queued_at: float):
        """Map one healed chunk outcome back onto one batch member."""
        if member.expired(queued_at):
            return self._deadline_response(member, queued=True)
        if (outcome.status == "failed" or outcome.result is None) \
                and member.expired():
            return self._deadline_response(member, queued=False)
        return self._respond(member, outcome, axis)

    def _build_chunk(self, key: Hashable,
                     members: list[_Pending]
                     ) -> tuple[GridChunk, tuple[int, ...]]:
        """One grid chunk covering every size the group's members want."""
        (_, workload, scale, seed, cache, tracegen, backend,
         algorithm, max_regions) = key
        sizes: set[int] = set()
        for member in members:
            sizes.update(member.sizes)
        axis = tuple(sorted(sizes))
        return GridChunk(
            workload=workload, spm_sizes=axis, algorithm=algorithm,
            scale=scale, seed=seed, cache=cache, tracegen=tracegen,
            max_regions=max_regions, backend=backend,
        ), axis

    @staticmethod
    def _request_sizes(request) -> tuple[int, ...]:
        """The capacities one request needs out of its group's chunk.

        Called once per request, at admission.  A request that names
        no size takes its workload's table-1 axis (or that axis's
        smallest entry), which does not depend on ``scale``.
        """
        if isinstance(request, SimulateRequest):
            return (BASELINE_SIZE,)
        if isinstance(request, SweepRequest):
            if request.spm_sizes is not None:
                return tuple(request.spm_sizes)
            return get_workload(request.workload).spm_sizes
        if request.spm_size is not None:
            return (request.spm_size,)
        return (min(get_workload(request.workload).spm_sizes),)

    def _respond(self, member: _Pending, outcome: PointOutcome,
                 axis: tuple[int, ...]):
        """Map one healed chunk outcome back onto one member request.

        Result payloads come from :func:`experiment_result_payload`:
        serialised once per result object and shared, read-only, by
        every response that carries it.
        """
        if outcome.status == "failed" or outcome.result is None:
            return ErrorResponse(error=outcome.error,
                                 attempts=outcome.attempts,
                                 run_id=outcome.run_id or self.run_id)
        request = member.request
        results = outcome.result
        run_id = outcome.run_id or self.run_id
        steps = [results[axis.index(size)] for size in member.sizes]
        degraded = any(
            getattr(getattr(step, "allocation", None),
                    "solver_status", "") == "degraded"
            for step in steps
        )
        status = "degraded" if degraded else (
            "retried" if outcome.attempts > 1 else "ok")
        envelope = {"status": status, "attempts": outcome.attempts,
                    "error": outcome.error, "run_id": run_id}
        payloads = [experiment_result_payload(step) for step in steps]
        if isinstance(request, SimulateRequest):
            return SimulateResponse(report=payloads[0]["report"],
                                    **envelope)
        if isinstance(request, AllocateRequest):
            return AllocateResponse(
                allocation=payloads[0]["allocation"], **envelope)
        if isinstance(request, EvaluateRequest):
            return EvaluateResponse(result=payloads[0], **envelope)
        assert isinstance(request, SweepRequest)
        return SweepResponse(spm_sizes=member.sizes,
                             results=tuple(payloads), **envelope)

    def _run_conflict_graph(self, pending: _Pending):
        """Profile one conflict graph directly (unbatched verb)."""
        if pending.expired():
            return self._deadline_response(pending, queued=True)
        request: ConflictGraphRequest = pending.request
        self._mark_unit(request, False)
        try:
            with self._using_store(request.tenant):
                session = Session(
                    request.workload, cache=request.cache,
                    scale=request.scale, seed=request.seed,
                    backend=request.backend, tracegen=request.tracegen,
                )
                # Profiles the workbench, or finds it memoised.
                session.conflict_graph()
                artifact = session.workbench.graph_artifact
        finally:
            self._mark_unit(request, True)
        return ConflictGraphResponse(
            graph=conflict_graph_payload(artifact), run_id=self.run_id)

    # -- drain ----------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the service has begun its shutdown drain."""
        return self.admission.draining

    def begin_drain(self) -> None:
        """Refuse new work; in-flight requests keep running.

        From this moment :meth:`healthz` and :meth:`readyz` report
        unhealthy/unready and every new verb request sheds with reason
        ``draining``; the daemon then waits for in-flight work
        (including anything still queued in the batcher) and exits 0.
        Idempotent.
        """
        if not self.admission.draining:
            log_event("serve.drain.begin",
                      inflight=self.admission.inflight)
            self.registry.counter("serve.drain.begins").inc()
        self.admission.begin_drain()

    async def drain(self, timeout_s: float) -> bool:
        """Begin the drain and wait for in-flight work to finish.

        Queued requests need no flush: the batcher runs them as soon
        as the executor frees up.  Returns ``True`` when everything
        completed inside *timeout_s*, ``False`` when the deadline cut
        the wait short (in-flight requests may still be running).
        """
        self.begin_drain()
        deadline = time.monotonic() + max(0.0, timeout_s)
        while self.admission.inflight > 0:
            if time.monotonic() >= deadline:
                log_event("serve.drain.timeout",
                          inflight=self.admission.inflight)
                return False
            await asyncio.sleep(0.01)
        log_event("serve.drain.complete")
        return True

    # -- health and metrics ---------------------------------------------------

    def _mark_unit(self, unit: Any, final: bool) -> None:
        """Record the unit the executor runs or waits on (liveness).

        The healing loop's ``on_unit`` callback, also called around a
        conflict-graph profile: *unit* is current from the call with
        ``final=False`` until the one with ``final=True``.
        """
        if not final:
            self._current = (unit, time.monotonic())
        elif self._current is not None and self._current[0] is unit:
            self._current = None

    @staticmethod
    def _unit_label(unit: Any) -> str:
        """Display label of a marked unit."""
        if isinstance(unit, GridChunk):
            return unit.label
        return f"{unit.workload}/conflict_graph"

    def healthz(self) -> tuple[bool, dict[str, Any]]:
        """``(healthy, body)`` of ``/healthz``.

        Unhealthy (503) while draining, or once the executor has spent
        more than ``stall_timeout`` seconds on its current unit.  The
        body is ``{healthy, draining, run_id, current, busy_s}``:
        *current* labels the unit (``None`` when idle) and *busy_s*
        is how long the executor has been on it.
        """
        current = self._current
        busy = 0.0 if current is None else time.monotonic() - current[1]
        draining = self.draining
        healthy = busy <= self.config.stall_timeout and not draining
        return healthy, {
            "healthy": healthy,
            "draining": draining,
            "run_id": self.run_id,
            "current": None if current is None
            else self._unit_label(current[0]),
            "busy_s": round(busy, 6),
        }

    def readyz(self) -> bool:
        """Readiness: whether new requests would be admitted at all.

        Liveness (:meth:`healthz`) says *the process works*; readiness
        says *send traffic here*.  A draining service is still live
        enough to finish in-flight work but must not receive new
        requests, so readiness flips first — load balancers watch
        ``/readyz``, process supervisors ``/healthz``.
        """
        return not self.draining

    def metrics_text(self) -> str:
        """The ``/metrics`` body (Prometheus text exposition format)."""
        return render_prometheus(self.registry)
