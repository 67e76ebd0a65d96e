"""The one-stop :class:`Session` facade over the whole pipeline.

Every experiment in this repository walks the same figure-3 flow —
profile the program, form traces, simulate the baseline cache, build
the conflict graph, allocate, re-simulate — but historically each
consumer assembled it from scattered pieces (``Workbench`` +
``WorkbenchConfig`` + ``TraceGenConfig`` + per-allocator classes).
:class:`Session` packages the flow behind four verbs::

    from repro import Session

    session = Session("mpeg", spm_size=256)
    report = session.simulate()             # baseline cache statistics
    graph = session.conflict_graph()        # the paper's G = (X, E)
    decision = session.allocate("casa")     # just the decision
    result = session.evaluate("casa")       # decision + energy
    curve = session.sweep("casa")           # whole capacity axis

Sessions are cheap to create: all profiling work is deferred to the
first call that needs it and resolved through the engine's artifact
store, so repeated sessions over the same configuration recompute
nothing.  The ``backend`` knob selects the simulation backend
(``reference`` | ``vector`` | ``auto``) for every simulation the
session runs.

The older entry points (:class:`repro.core.pipeline.Workbench`,
:func:`repro.engine.runner.make_workbench`, the allocator classes)
remain public — :class:`Session` is sugar over them, not a
replacement.
"""

from __future__ import annotations

from typing import Any

from repro.core import make_allocator
from repro.core.allocation import AllocationContext
from repro.core.conflict_graph import ConflictGraph
from repro.core.pipeline import (
    ExperimentResult,
    Workbench,
    WorkbenchConfig,
)
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError
from repro.memory.config import CacheConfig
from repro.memory.stats import SimulationReport
from repro.program.program import Program
from repro.traces.tracegen import TraceGenConfig

#: Methods :meth:`Session.evaluate` accepts (``baseline`` = no
#: scratchpad, cache only).
EVALUATE_METHODS = ("baseline", "casa", "steinke", "greedy", "ross",
                    "overlay")


class Session:
    """One workload + hierarchy configuration, end to end.

    Args:
        workload: a registered workload name (see
            :func:`repro.workloads.available_workloads`) or a
            :class:`~repro.program.program.Program` of your own.
        cache: I-cache configuration (defaults to the workload's paper
            configuration, or the default :class:`CacheConfig` for a
            raw program).
        spm_size: default scratchpad / loop-cache capacity in bytes
            for :meth:`allocate` and :meth:`evaluate` (defaults to the
            workload's smallest table-1 size; a raw program has no
            default, so those calls then need an explicit size).
        scale: outer-loop trip-count multiplier.
        seed: executor seed for probabilistic branches.
        backend: simulation backend (``reference`` | ``vector`` |
            ``auto``; ``None`` defers to ``CASA_BACKEND``, then
            ``auto``).
        tracegen: trace-formation override (defaults to the cache's
            line size and the session's scratchpad capacity).
    """

    def __init__(
        self,
        workload: str | Program,
        cache: CacheConfig | None = None,
        spm_size: int | None = None,
        *,
        scale: float = 1.0,
        seed: int = 0,
        backend: str | None = None,
        tracegen: TraceGenConfig | None = None,
    ) -> None:
        self._workload_name = workload if isinstance(workload, str) \
            else None
        self._program = workload if isinstance(workload, Program) \
            else None
        self._cache = cache
        self._spm_size = spm_size
        self._scale = scale
        self._seed = seed
        self._backend = backend
        self._tracegen = tracegen
        self._bench: Workbench | None = None

    # -- lazy workbench -------------------------------------------------------

    @property
    def workbench(self) -> Workbench:
        """The profiled workbench behind this session (built lazily)."""
        if self._bench is None:
            if self._workload_name is not None:
                from repro.engine.runner import make_workbench

                workload, bench = make_workbench(
                    self._workload_name, self._scale, self._seed,
                    cache=self._cache, tracegen=self._tracegen,
                    backend=self._backend,
                )
                if self._spm_size is None:
                    self._spm_size = min(workload.spm_sizes)
                self._bench = bench
            else:
                cache = self._cache if self._cache is not None \
                    else CacheConfig()
                tracegen = self._tracegen or TraceGenConfig(
                    line_size=cache.line_size,
                    max_trace_size=self._spm_size or cache.size,
                )
                self._bench = Workbench(
                    self._program,
                    WorkbenchConfig(cache=cache, tracegen=tracegen,
                                    seed=self._seed,
                                    backend=self._backend),
                )
        return self._bench

    @property
    def spm_size(self) -> int | None:
        """The session's default scratchpad capacity in bytes."""
        if self._spm_size is None and self._workload_name is not None:
            self.workbench  # resolves the workload default
        return self._spm_size

    def _capacity(self, spm_size: int | None) -> int:
        size = spm_size if spm_size is not None else self.spm_size
        if size is None:
            raise ConfigurationError(
                "this session has no default scratchpad size; pass "
                "spm_size= to the call (or to Session())"
            )
        return size

    # -- the four verbs -------------------------------------------------------

    def simulate(self) -> SimulationReport:
        """Statistics of the baseline (cache-only) profiling run."""
        return self.workbench.baseline_report

    def conflict_graph(self) -> ConflictGraph:
        """The profiled conflict graph G = (X, E) of section 3.3."""
        return self.workbench.conflict_graph

    def allocate(self, method: str = "casa",
                 spm_size: int | None = None, **options: Any):
        """Run one allocator and return its decision (no simulation).

        Args:
            method: an allocator name accepted by
                :func:`repro.core.make_allocator` (``casa``,
                ``steinke``, ``greedy`` or ``ross``).
            spm_size: capacity override (defaults to the session's).
            **options: allocator configuration, e.g.
                ``allocate("casa", conflict_term=False)`` or
                ``allocate("ross", max_regions=2)``.

        Returns:
            The allocator's decision (an
            :class:`~repro.core.allocation.Allocation` for the
            scratchpad and loop-cache methods).
        """
        capacity = self._capacity(spm_size)
        bench = self.workbench
        allocator = make_allocator(method, **options)
        return allocator.allocate(
            bench.conflict_graph,
            capacity,
            bench.spm_energy_model(capacity),
            context=self.context(),
        )

    def evaluate(self, method: str = "casa",
                 spm_size: int | None = None,
                 **options: Any) -> ExperimentResult:
        """Allocate with *method* and simulate the outcome.

        Args:
            method: one of :data:`EVALUATE_METHODS`.
            spm_size: capacity override (defaults to the session's;
                ignored for ``baseline``).
            **options: method options (``ross`` accepts
                ``max_regions``).

        Returns:
            The evaluated
            :class:`~repro.core.pipeline.ExperimentResult`: decision,
            simulation report and energy breakdown.
        """
        bench = self.workbench
        if method == "baseline":
            return bench.baseline_result()
        capacity = self._capacity(spm_size)
        if method == "casa":
            return bench.run_casa(capacity)
        if method == "steinke":
            return bench.run_steinke(capacity)
        if method == "greedy":
            return bench.run_greedy(capacity)
        if method == "ross":
            return bench.run_ross(capacity, **options)
        if method == "overlay":
            return bench.run_overlay(capacity)
        raise ConfigurationError(
            f"unknown evaluation method {method!r}; choose from "
            f"{', '.join(EVALUATE_METHODS)}"
        )

    def sweep(self, method: str = "casa",
              spm_sizes: tuple[int, ...] | None = None,
              policies: list[str] | None = None,
              **options: Any):
        """Evaluate *method* across a whole capacity axis.

        Routes through
        :meth:`~repro.core.pipeline.Workbench.run_grid`: the workbench
        profiles once, capacities solve in ascending order, and every
        step shares its ``result`` artifact with the corresponding
        :meth:`evaluate` call.

        Args:
            method: ``casa`` | ``steinke`` | ``greedy`` | ``ross`` |
                ``baseline``.
            spm_sizes: the capacity axis in bytes (defaults to the
                named workload's table-1 sizes; a raw-program session
                must pass it explicitly).
            policies: replacement policies to cross with the capacity
                axis (any
                :func:`~repro.memory.replacement.available_policies`
                names, e.g. ``["lru", "lfu", "2q", "opt"]``).  Each
                policy is profiled and allocated under its own cache
                configuration; include ``"opt"`` to sweep the Belady
                lower bound alongside the online policies.
            **options: method options (``ross`` accepts
                ``max_regions``).

        Returns:
            Without *policies*: one result per capacity, in the order
            of *spm_sizes*.  With *policies*: a dict mapping each
            policy name to that list, in the order given.
        """
        if spm_sizes is None:
            if self._workload_name is None:
                raise ConfigurationError(
                    "this session has no default capacity axis; pass "
                    "spm_sizes= to sweep()"
                )
            from repro.workloads.registry import get_workload
            spm_sizes = get_workload(
                self._workload_name, scale=self._scale
            ).spm_sizes
        if policies is not None:
            from repro.memory.replacement import available_policies
            known = available_policies()
            for name in policies:
                if name not in known:
                    from repro.errors import UnknownPolicyError
                    raise UnknownPolicyError(name, known)
            return {
                name: self._with_policy(name).workbench.run_grid(
                    method, tuple(spm_sizes), **options
                )
                for name in dict.fromkeys(policies)
            }
        return self.workbench.run_grid(method, tuple(spm_sizes),
                                       **options)

    def _with_policy(self, policy: str) -> "Session":
        """A sibling session whose cache uses *policy*.

        Built from the resolved workbench configuration, so the cache
        geometry and trace formation — and therefore the memory
        objects every allocator sees — are identical across the
        policy axis; only victim selection differs.
        """
        from dataclasses import replace

        base = self.workbench.config
        workload = self._workload_name \
            if self._workload_name is not None else self._program
        return Session(
            workload,
            cache=replace(base.cache, policy=policy),
            spm_size=self._spm_size,
            scale=self._scale,
            seed=self._seed,
            backend=self._backend,
            tracegen=base.tracegen,
        )

    # -- wire adapters --------------------------------------------------------

    def as_request(self, verb: str, *, tenant: str = "default",
                   **options: Any):
        """This session's configuration as a ``repro serve`` request.

        The wire schemas (:mod:`repro.serve.schema`) are the canonical
        public API of the verbs; this adapter builds the request a
        remote daemon would answer exactly like the local call.

        Args:
            verb: ``simulate`` | ``conflict_graph`` | ``allocate`` |
                ``evaluate`` | ``sweep``.
            tenant: artifact-store shard on the serving side.
            **options: verb options — ``allocate``/``evaluate`` accept
                ``method``, ``spm_size`` and ``max_regions``;
                ``sweep`` accepts ``method``, ``spm_sizes`` and
                ``max_regions``.

        Raises:
            ConfigurationError: for a raw-program session (programs
                cannot travel as JSON; the wire API serves registered
                workloads only) or an unknown verb.
        """
        if self._workload_name is None:
            raise ConfigurationError(
                "only sessions over registered workloads can become "
                "serve requests (a raw Program cannot travel as JSON)"
            )
        from repro.serve import schema

        common = {
            "workload": self._workload_name,
            "scale": self._scale,
            "seed": self._seed,
            "cache": self._cache,
            "tracegen": self._tracegen,
            "backend": self._backend,
            "tenant": tenant,
        }
        if verb == "simulate":
            return schema.SimulateRequest(**common)
        if verb == "conflict_graph":
            return schema.ConflictGraphRequest(**common)
        if verb in ("allocate", "evaluate"):
            cls = schema.AllocateRequest if verb == "allocate" \
                else schema.EvaluateRequest
            return cls(
                algorithm=options.get("method", "casa"),
                spm_size=options.get("spm_size", self._spm_size),
                max_regions=options.get("max_regions", 4),
                **common,
            )
        if verb == "sweep":
            sizes = options.get("spm_sizes")
            return schema.SweepRequest(
                algorithm=options.get("method", "casa"),
                spm_sizes=tuple(sizes) if sizes is not None else None,
                max_regions=options.get("max_regions", 4),
                **common,
            )
        raise ConfigurationError(
            f"unknown serve verb {verb!r}; choose from simulate, "
            "conflict_graph, allocate, evaluate, sweep"
        )

    @staticmethod
    def from_response(response):
        """Decode a serve response into the local verb's return type.

        ``SimulateResponse`` → :class:`SimulationReport`,
        ``ConflictGraphResponse`` → :class:`ConflictGraph`,
        ``AllocateResponse`` → an allocation decision,
        ``EvaluateResponse`` → :class:`ExperimentResult`,
        ``SweepResponse`` → a result list — the same objects the
        corresponding :class:`Session` method returns locally.

        Raises:
            ConfigurationError: for a ``failed`` response (the error
                record is included) or an unknown response type.
        """
        from repro.io import serde
        from repro.serve import schema

        if response.status == "failed":
            error = response.error or {}
            raise ConfigurationError(
                "serve request failed: "
                f"{error.get('type', 'unknown')}: "
                f"{error.get('message', '(no message)')}"
            )
        if isinstance(response, schema.SimulateResponse):
            return serde.report_from_dict(response.report)
        if isinstance(response, schema.ConflictGraphResponse):
            return serde.conflict_graph_from_dict(response.graph)
        if isinstance(response, schema.AllocateResponse):
            return serde.allocation_from_dict(response.allocation)
        if isinstance(response, schema.EvaluateResponse):
            return serde.experiment_result_from_dict(response.result)
        if isinstance(response, schema.SweepResponse):
            return [serde.experiment_result_from_dict(step)
                    for step in response.results]
        raise ConfigurationError(
            f"cannot decode response type {type(response).__name__}"
        )

    # -- supporting accessors -------------------------------------------------

    def context(self) -> AllocationContext:
        """The allocation context (program, traces, baseline image)."""
        return self.workbench.allocation_context()

    def energy_model(self, spm_size: int | None = None) -> EnergyModel:
        """Per-event energy model of the cache + scratchpad hierarchy."""
        return self.workbench.spm_energy_model(
            self._capacity(spm_size)
        )

    def __repr__(self) -> str:
        target = self._workload_name or (
            self._program.name if self._program is not None else "?"
        )
        return (f"Session({target!r}, spm_size={self._spm_size}, "
                f"scale={self._scale}, seed={self._seed}, "
                f"backend={self._backend!r})")
