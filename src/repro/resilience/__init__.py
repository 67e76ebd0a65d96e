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
the healing and chaos layers import the engine — the names below are
resolved lazily to keep that cycle open.
"""

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

_HEALING_NAMES = ("HealedRun", "PointOutcome", "RetryPolicy",
                  "map_points_healed")
_CHAOS_NAMES = ("ChaosResult", "run_chaos")

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultRule",
    "SITES",
    "active_fault_plan",
    "maybe_inject",
    "set_fault_attempt",
    "set_fault_plan",
    *_HEALING_NAMES,
    *_CHAOS_NAMES,
]


def __getattr__(name: str):
    """Resolve healing/chaos exports lazily (they import the engine)."""
    if name in _HEALING_NAMES:
        import repro.resilience.healing as healing
        return getattr(healing, name)
    if name in _CHAOS_NAMES:
        import repro.resilience.chaos as chaos
        return getattr(chaos, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
