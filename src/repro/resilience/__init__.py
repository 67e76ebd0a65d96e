"""Fault injection, self-healing sweeps and chaos testing.

Three layers, bottom up:

* :mod:`repro.resilience.faults` — deterministic fault injection at
  named sites (:data:`~repro.resilience.faults.SITES`), driven by a
  :class:`~repro.resilience.faults.FaultPlan` (``$CASA_FAULTS``).
* :mod:`repro.resilience.healing` — the engine's one work-unit
  executor (``map_points`` is a strict view of it): serial or pooled
  runs with a per-unit timeout, bounded retry-with-backoff, pool
  restart on worker crashes and a per-unit
  :class:`~repro.resilience.healing.PointOutcome`.
* :mod:`repro.resilience.chaos` — the differential gate: run a sweep
  with and without an injected plan and assert the deterministic
  results are bit-identical.

Only the fault layer is imported eagerly: the engine's hot paths
import :func:`~repro.resilience.faults.maybe_inject` from here, while
the healing and chaos layers import the engine — their names below
resolve lazily, which keeps that cycle open.
"""

from repro._lazy import lazy_exports
from repro.resilience.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultRule,
    SITES,
    active_fault_plan,
    maybe_inject,
    set_fault_attempt,
    set_fault_plan,
)

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultRule",
    "SITES",
    "active_fault_plan",
    "maybe_inject",
    "set_fault_attempt",
    "set_fault_plan",
    "HealedRun",
    "PointOutcome",
    "RetryPolicy",
    "map_points_healed",
    "ChaosResult",
    "run_chaos",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.healing": (
        "HealedRun",
        "PointOutcome",
        "RetryPolicy",
        "map_points_healed",
    ),
    "repro.resilience.chaos": ("ChaosResult", "run_chaos"),
})
