"""Admission control for the allocation service: shed before queueing.

Every request the daemon accepts passes through one
:class:`AdmissionController` *before* it may enter the micro-batcher.
The controller enforces two gates, in order:

1. **drain** — a draining service accepts no new work
   (:data:`SHED_DRAINING`);
2. **concurrency** — a global ``max_inflight`` bound on
   admitted-but-unanswered requests (:data:`SHED_OVERLOAD`).  This
   gate is what keeps the batch queue bounded: the batcher can never
   hold more requests than the gate has admitted.

A shed request is answered with a structured 503 carrying a
``Retry-After`` hint of :data:`RETRY_AFTER_S` and never touches the
executor.  Accounting: ``serve.shed.total`` plus
``serve.shed.<reason>`` and ``serve.shed.verb.<verb>`` counters (the
chaos gate asserts the reasons always sum to the total) and the
``serve.inflight`` gauge.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry

#: Shed reasons, also the ``serve.shed.<reason>`` metric suffixes.
SHED_DRAINING = "draining"
SHED_OVERLOAD = "overload"

SHED_REASONS = (SHED_DRAINING, SHED_OVERLOAD)

#: Default bound on admitted-but-unanswered requests.
DEFAULT_MAX_INFLIGHT = 64

#: ``Retry-After`` hint attached to shed responses (seconds).
RETRY_AFTER_S = 1.0


class AdmissionTicket:
    """Receipt of one admitted request; must be released exactly once."""

    __slots__ = ("_controller", "_closed")

    def __init__(self, controller: "AdmissionController") -> None:
        self._controller = controller
        self._closed = False

    def release(self) -> None:
        """Give the slot back (idempotent: double release is a no-op)."""
        if self._closed:
            return
        self._closed = True
        self._controller._release()


class AdmissionController:
    """The service's front door: admit, shed, and account for both.

    Args:
        registry: metrics registry receiving the shed counters and
            the in-flight gauge.
        max_inflight: bound on concurrently admitted requests
            (``<= 0`` = unbounded).
    """

    def __init__(self, registry: MetricsRegistry,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT) -> None:
        self.registry = registry
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self._inflight = 0
        self.draining = False

    def try_admit(self, verb: str) -> "AdmissionTicket | str":
        """Admit one request or name the shed reason.

        Returns an :class:`AdmissionTicket` on admission, or one of
        :data:`SHED_REASONS` when the request must be shed (the shed
        is already counted).
        """
        with self._lock:
            if self.draining:
                return self._shed(verb, SHED_DRAINING)
            if 0 < self.max_inflight <= self._inflight:
                return self._shed(verb, SHED_OVERLOAD)
            self._inflight += 1
            self.registry.gauge("serve.inflight").set(self._inflight)
            return AdmissionTicket(self)

    def _shed(self, verb: str, reason: str) -> str:
        """Count one shed (caller holds the lock) and return *reason*."""
        self.registry.counter("serve.shed.total").inc()
        self.registry.counter(f"serve.shed.{reason}").inc()
        self.registry.counter(f"serve.shed.verb.{verb}").inc()
        return reason

    def _release(self) -> None:
        """Return one admitted slot."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self.registry.gauge("serve.inflight").set(self._inflight)

    @property
    def inflight(self) -> int:
        """Currently admitted-but-unanswered requests."""
        with self._lock:
            return self._inflight

    def begin_drain(self) -> None:
        """Stop admitting new work (idempotent)."""
        with self._lock:
            self.draining = True
