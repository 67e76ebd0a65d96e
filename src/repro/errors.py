"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-classes are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent parameters.

    Examples: a cache whose size is not a power of two, a scratchpad with
    a negative capacity, an energy model with ``miss`` cheaper than
    ``hit``.
    """


class UnknownPolicyError(ConfigurationError):
    """A cache replacement policy name is not in the policy registry.

    Attributes:
        name: the unrecognised policy name as given.
        choices: the valid names, sorted (one shared registry feeds
            :func:`repro.memory.replacement.make_policy`, the CLI help
            text and the docs).
    """

    def __init__(self, name: str, choices: tuple[str, ...] = ()) -> None:
        super().__init__(
            f"unknown replacement policy {name!r}; "
            f"choose from {', '.join(choices) if choices else '(none)'}"
        )
        self.name = name
        self.choices = choices

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (self.name, self.choices))


class UnknownBackendError(ConfigurationError):
    """A storage backend spec names neither ``disk`` nor ``memory``.

    Attributes:
        name: the unrecognised backend name as given.
        choices: the valid names, sorted (as
            :func:`repro.engine.store.make_backend` accepts them).
    """

    def __init__(self, name: str, choices: tuple[str, ...] = ()) -> None:
        super().__init__(
            f"unknown storage backend {name!r}; "
            f"choose from {', '.join(choices) if choices else '(none)'}"
        )
        self.name = name
        self.choices = choices

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (self.name, self.choices))


class LayoutError(ReproError):
    """A program layout is inconsistent (overlapping or unmapped ranges)."""


class SimulationError(ReproError):
    """The memory-hierarchy simulator hit an impossible state.

    Typically an instruction fetch for an address that no memory in the
    hierarchy claims.
    """


class TraceError(ReproError):
    """Trace generation produced (or was asked to produce) invalid traces."""


class SolverError(ReproError):
    """The ILP/LP machinery failed to produce a usable solution."""


class InfeasibleError(SolverError):
    """The optimisation problem has no feasible point."""


class UnboundedError(SolverError):
    """The optimisation problem is unbounded."""


class AllocationError(ReproError):
    """A scratchpad/loop-cache allocation is invalid (e.g. over capacity)."""


class WorkloadError(ReproError):
    """A workload was mis-specified or an unknown benchmark was requested."""


# -- resilience -----------------------------------------------------------------
#
# The errors below carry structured context (the failing injection
# *site* and/or design *point*) so the self-healing sweep layer
# (:mod:`repro.resilience`) can report exactly what failed where.  They
# cross process boundaries, so each defines ``__reduce__`` to keep its
# attributes through pickling.


class CacheCorruptionError(ReproError):
    """An on-disk artifact failed to load and was quarantined.

    The store recovers transparently (the artifact is recomputed); this
    type records *what* was corrupt for the store's corruption log and
    the resilience report.

    Attributes:
        stage: engine stage of the corrupt artifact.
        digest: content digest of the corrupt artifact.
        path: original on-disk location (before quarantining).
    """

    def __init__(self, message: str = "", stage: str = "",
                 digest: str = "", path: str = "") -> None:
        super().__init__(message)
        self.stage = stage
        self.digest = digest
        self.path = path

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (
            type(self),
            (str(self), self.stage, self.digest, self.path),
        )


class WorkerCrashError(ReproError):
    """A sweep worker process died (or a crash fault was injected).

    Attributes:
        site: the fault-injection site or subsystem that crashed.
        point: short label of the work unit being evaluated.
    """

    def __init__(self, message: str = "", site: str = "",
                 point: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.point = point

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (str(self), self.site, self.point))


class PointTimeoutError(ReproError):
    """One work unit (a grid chunk) exceeded its evaluation timeout.

    Attributes:
        point: short label of the work unit that timed out.
        seconds: the timeout that was exceeded.
    """

    def __init__(self, message: str = "", point: str = "",
                 seconds: float = 0.0) -> None:
        super().__init__(message)
        self.point = point
        self.seconds = seconds

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (str(self), self.point, self.seconds))


class DegradedResultError(ReproError):
    """A degradation ladder was reached but degrading was disallowed.

    Raised e.g. by the CASA allocator when its solve budget is
    exhausted and the configuration forbids the greedy fallback.

    Attributes:
        site: the subsystem that wanted to degrade (e.g. ``ilp.solve``).
        point: short description of the affected design point, if any.
    """

    def __init__(self, message: str = "", site: str = "",
                 point: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.point = point

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (str(self), self.site, self.point))


class InjectedFault(ReproError):
    """A fault raised by the deterministic fault-injection framework.

    Only ever raised when a :class:`repro.resilience.FaultPlan` is
    active; production code paths treat it exactly like the real
    failure it stands in for (corrupt artifact, failed solve, crashed
    worker ...).

    Attributes:
        site: the injection site that fired.
    """

    def __init__(self, message: str = "", site: str = "") -> None:
        super().__init__(message)
        self.site = site

    def __reduce__(self):
        """Preserve the structured attributes across pickling."""
        return (type(self), (str(self), self.site))
