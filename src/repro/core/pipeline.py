"""End-to-end experimental workflow (the paper's figure 3).

A :class:`Workbench` runs the flow once per (program, cache) pair —
profiling execution, trace generation, baseline cache simulation,
conflict-graph construction — and then evaluates any number of
allocation decisions against it: scratchpads of various sizes allocated
by CASA/Steinke/greedy, or preloaded loop caches allocated by Ross.

The workbench is a thin façade over the staged experiment engine
(:mod:`repro.engine`): every stage resolves through a
:class:`~repro.engine.runner.StageRunner`, so results come from the
content-addressed artifact store whenever the same inputs have been
profiled or simulated before — in this process or (with an on-disk
cache) any earlier one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import make_allocator
from repro.core.allocation import Allocation, AllocationContext
from repro.engine.artifacts import (
    AllocationArtifact,
    BaselineSimArtifact,
    ConflictGraphArtifact,
    ExecutionArtifact,
    StreamArtifact,
    TraceArtifact,
    baseline_digest,
    execution_digest,
    graph_digest,
    result_digest,
    stream_digest,
    trace_digest,
)
from repro.engine.runner import StageRunner
from repro.core.conflict_graph import ConflictGraph
from repro.energy.model import (
    EnergyBreakdown,
    EnergyModel,
    build_energy_model,
    compute_energy,
)
from repro.errors import ConfigurationError
from repro.memory.config import CacheConfig, HierarchyConfig, \
    LoopCacheConfig
from repro.memory.hierarchy import resolve_backend, simulate
from repro.memory.stats import SimulationReport
from repro.obs import metrics
from repro.obs.trace import span
from repro.program.executor import execute_program
from repro.program.program import Program
from repro.traces.layout import (
    MAIN_BASE,
    SPM_BASE,
    LinkedImage,
    Placement,
)
from repro.traces.tracegen import TraceGenConfig, generate_traces

if TYPE_CHECKING:
    from repro.core.casa import CasaAllocator
    from repro.memory.kernel.stream import CompiledSequence, FetchStream


@dataclass(frozen=True)
class WorkbenchConfig:
    """Fixed parameters of one experimental setup.

    Attributes:
        cache: the L1 I-cache kept invariant through the sweep.
        tracegen: trace-formation parameters (the max trace size should
            not exceed the smallest scratchpad of the sweep).
        seed: executor seed for probabilistic branches.
        main_base: base address of the main-memory code image.
        spm_base: base address of the scratchpad region.
        backend: simulation backend — ``reference``, ``vector`` or
            ``auto`` (``None`` consults the ``CASA_BACKEND``
            environment variable, then defaults to ``auto``).  The
            loop-cache, overlay and phase-tracked simulations always
            use the reference interpreter regardless of this knob.
    """

    cache: CacheConfig = CacheConfig()
    tracegen: TraceGenConfig = TraceGenConfig()
    seed: int = 0
    main_base: int = MAIN_BASE
    spm_base: int = SPM_BASE
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.cache.line_size != self.tracegen.line_size:
            raise ConfigurationError(
                "trace padding must match the cache line size "
                f"({self.tracegen.line_size} != {self.cache.line_size})"
            )
        resolve_backend(self.backend)


@dataclass
class ExperimentResult:
    """One allocation decision, simulated.

    Attributes:
        allocation: the allocator's decision.
        report: the memory-hierarchy simulation statistics.
        energy: the energy breakdown of the run.
        model: the per-event energies used.
    """

    allocation: Allocation
    report: SimulationReport
    energy: EnergyBreakdown
    model: EnergyModel
    #: Memo of :func:`repro.io.serde.experiment_result_payload`: lives
    #: and dies with this object, never pickled.
    _payload: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle without the memoised wire payload."""
        state = self.__dict__.copy()
        state.pop("_payload", None)
        return state

    @property
    def total_energy(self) -> float:
        """Total instruction-memory energy in nJ."""
        return self.energy.total


class Workbench:
    """Profiles a program once and evaluates allocations against it.

    All expensive stages resolve through the engine's stage runner and
    artifact store: constructing a second workbench with the same
    program and configuration (even in another process, given an
    on-disk store) replays no execution and no simulation.
    """

    def __init__(self, program: Program, config: WorkbenchConfig,
                 runner: StageRunner | None = None) -> None:
        self._program = program
        self._config = config
        self._runner = runner if runner is not None else StageRunner()

        exec_key = execution_digest(program, config.seed)
        execution = self._runner.resolve(
            "execution", exec_key,
            lambda: _compute_execution(program, config.seed, exec_key),
        )
        self._block_sequence = execution.block_sequence
        self._profile = execution.profile

        trace_key = trace_digest(exec_key, config.tracegen)
        trace = self._runner.resolve(
            "trace", trace_key,
            lambda: TraceArtifact(trace_key, generate_traces(
                program, self._profile, config.tracegen
            )),
        )
        self._memory_objects = trace.memory_objects
        self._trace_key = trace_key

        self._sequence: CompiledSequence | None = None
        self._baseline_stream: FetchStream | None = None
        self._last_link: tuple[tuple, FetchStream] | None = None
        self._baseline_image = LinkedImage(
            program,
            self._memory_objects,
            spm_resident=frozenset(),
            spm_size=0,
            placement=Placement.COPY,
            main_base=config.main_base,
            spm_base=config.spm_base,
        )
        self._baseline_config = HierarchyConfig(cache=config.cache)
        base_key = baseline_digest(
            trace_key, config.cache, config.main_base, config.spm_base
        )
        baseline = self._runner.resolve(
            "baseline", base_key,
            lambda: BaselineSimArtifact(base_key, self._simulate_image(
                self._baseline_image, self._baseline_config
            )),
        )
        self._baseline_report = baseline.report

        self._graph_digest = graph_digest(base_key)
        graph_artifact = self._runner.resolve(
            "graph", self._graph_digest,
            lambda: ConflictGraphArtifact(
                self._graph_digest,
                ConflictGraph.from_simulation(
                    self._memory_objects, self._baseline_report
                ),
            ),
        )
        self._graph_artifact = graph_artifact
        self._graph = graph_artifact.graph
        self._baseline_result: ExperimentResult | None = None

    def attach_runner(self, runner: StageRunner) -> None:
        """Route subsequent result resolutions through *runner*.

        A memoised workbench keeps the runner that profiled it; a later
        experiment reusing the memo attaches its own runner so
        result-stage hits and computes are accounted to *its* run
        record (and store) rather than the original one's.
        """
        self._runner = runner

    # -- read-only views ----------------------------------------------------

    @property
    def program(self) -> Program:
        """The program under test."""
        return self._program

    @property
    def config(self) -> WorkbenchConfig:
        """The fixed experimental parameters."""
        return self._config

    @property
    def memory_objects(self):
        """The traces produced by trace generation."""
        return list(self._memory_objects)

    @property
    def conflict_graph(self) -> ConflictGraph:
        """The profiled conflict graph."""
        return self._graph

    @property
    def graph_artifact(self) -> ConflictGraphArtifact:
        """The store entry holding :attr:`conflict_graph`."""
        return self._graph_artifact

    @property
    def baseline_report(self) -> SimulationReport:
        """Statistics of the cache-only profiling run."""
        return self._baseline_report

    @property
    def block_sequence(self) -> list[str]:
        """The executed block sequence (shared by all evaluations)."""
        return self._block_sequence

    def baseline_result(self) -> ExperimentResult:
        """The cache-only hierarchy as an :class:`ExperimentResult`.

        Built once per workbench, like the other results a workbench
        hands out: shared, so read-only.
        """
        if self._baseline_result is None:
            model = build_energy_model(self._baseline_config)
            self._baseline_result = ExperimentResult(
                allocation=Allocation(algorithm="cache-only"),
                report=self._baseline_report,
                energy=compute_energy(self._baseline_report, model),
                model=model,
            )
        return self._baseline_result

    # -- evaluation ----------------------------------------------------------

    def allocation_context(self) -> AllocationContext:
        """The profiling context handed to every allocator."""
        return AllocationContext(
            program=self._program,
            memory_objects=list(self._memory_objects),
            image=self._baseline_image,
        )

    def _stream_for(self, image: LinkedImage) -> FetchStream:
        """The fetch stream of *image*: compiled once, linked per layout.

        The executed block sequence compiles once per trace into a
        layout-free ``stream`` artifact — in this process or, with a
        disk store, any earlier one — and each layout links it.  The
        workbench keeps the baseline's linked stream and the last other
        layout it linked, so back-to-back evaluations of one layout
        share a stream and its memoised probe expansions; no linked
        stream enters the store.
        """
        config = self._config
        if self._sequence is None:
            from repro.memory.kernel.stream import compile_stream

            key = stream_digest(self._trace_key)

            def compute() -> StreamArtifact:
                stream = compile_stream(
                    self._baseline_image, self._block_sequence,
                    spm_base=config.spm_base,
                )
                self._baseline_stream = stream
                return StreamArtifact(key, stream.sequence)

            self._sequence = self._runner.resolve(
                "stream", key, compute).sequence
        if image is self._baseline_image:
            if self._baseline_stream is None:
                self._baseline_stream = self._sequence.link(
                    image, config.spm_base)
            return self._baseline_stream
        layout = (image.spm_resident, image.placement)
        last = self._last_link
        if last is not None and last[0] == layout:
            return last[1]
        stream = self._sequence.link(image, config.spm_base)
        self._last_link = (layout, stream)
        return stream

    def _simulate_image(self, image: LinkedImage,
                        hierarchy: HierarchyConfig,
                        loop_regions=None) -> SimulationReport:
        """Simulate *image* under the configured backend.

        When the backend may take the vector path, the fetch stream
        comes from :meth:`_stream_for`, so a sweep compiles the block
        sequence once.
        """
        stream = None
        if resolve_backend(self._config.backend) != "reference":
            stream = self._stream_for(image)
        return simulate(
            image, hierarchy, self._block_sequence,
            spm_base=self._config.spm_base,
            loop_regions=loop_regions,
            backend=self._config.backend,
            stream=stream,
        )

    def spm_energy_model(self, spm_size: int) -> EnergyModel:
        """Per-event energies of the cache + scratchpad hierarchy."""
        return build_energy_model(
            HierarchyConfig(cache=self._config.cache, spm_size=spm_size)
        )

    def evaluate_spm(self, allocation: Allocation,
                     spm_size: int) -> ExperimentResult:
        """Simulate a scratchpad allocation decision."""
        with span("workbench.evaluate_spm", spm_size=spm_size,
                  algorithm=allocation.algorithm):
            return self._evaluate_spm(allocation, spm_size)

    def _evaluate_spm(self, allocation: Allocation,
                      spm_size: int) -> ExperimentResult:
        image = LinkedImage(
            self._program,
            self._memory_objects,
            spm_resident=allocation.spm_resident,
            spm_size=spm_size,
            placement=allocation.placement,
            main_base=self._config.main_base,
            spm_base=self._config.spm_base,
            object_sizes=self._baseline_image.object_sizes,
        )
        hierarchy = HierarchyConfig(
            cache=self._config.cache, spm_size=spm_size
        )
        report = self._simulate_image(image, hierarchy)
        model = build_energy_model(hierarchy)
        return ExperimentResult(
            allocation=allocation,
            report=report,
            energy=compute_energy(report, model),
            model=model,
        )

    def evaluate_loop_cache(
        self, allocation: Allocation, lc_config: LoopCacheConfig
    ) -> ExperimentResult:
        """Simulate a preloaded-loop-cache decision."""
        with span("workbench.evaluate_loop_cache",
                  lc_size=lc_config.size,
                  algorithm=allocation.algorithm):
            return self._evaluate_loop_cache(allocation, lc_config)

    def _evaluate_loop_cache(
        self, allocation: Allocation, lc_config: LoopCacheConfig
    ) -> ExperimentResult:
        hierarchy = HierarchyConfig(
            cache=self._config.cache, loop_cache=lc_config
        )
        # The loop cache sits next to the unmodified baseline layout,
        # so this reuses the baseline's compiled stream.
        report = self._simulate_image(
            self._baseline_image, hierarchy,
            loop_regions=list(allocation.loop_regions),
        )
        model = build_energy_model(hierarchy)
        return ExperimentResult(
            allocation=allocation,
            report=report,
            energy=compute_energy(report, model),
            model=model,
        )

    # -- allocator front doors -----------------------------------------------

    def _allocate_and_evaluate(self, allocator,
                               spm_size: int) -> ExperimentResult:
        """Run one scratchpad allocator and simulate its decision."""
        with span("alloc.allocate",
                  allocator=type(allocator).__name__,
                  spm_size=spm_size) as alloc_span:
            allocation = allocator.allocate(
                self._graph, spm_size, self.spm_energy_model(spm_size),
                context=self.allocation_context(),
            )
            alloc_span.add(objects=len(allocation.spm_resident),
                           solver_nodes=allocation.solver_nodes)
        return self.evaluate_spm(allocation, spm_size)

    def _cached_result(self, algorithm: str, spm_size: int, compute,
                       **options) -> ExperimentResult:
        """Resolve one evaluated allocation through the artifact store."""
        key = result_digest(
            self._graph_digest, algorithm, spm_size, options or None
        )
        artifact = self._runner.resolve(
            "result", key, lambda: AllocationArtifact(key, compute())
        )
        return artifact.result

    def run_casa(self, spm_size: int,
                 allocator: CasaAllocator | None = None) -> ExperimentResult:
        """Allocate with CASA and simulate the outcome.

        A custom *allocator* (non-default configuration) bypasses the
        artifact store, whose digest only identifies the defaults.
        """
        if allocator is not None:
            return self._allocate_and_evaluate(allocator, spm_size)
        return self._cached_result(
            "casa", spm_size,
            lambda: self._allocate_and_evaluate(make_allocator("casa"),
                                                spm_size),
        )

    def run_steinke(self, spm_size: int) -> ExperimentResult:
        """Allocate with the Steinke baseline and simulate the outcome."""
        return self._cached_result(
            "steinke", spm_size,
            lambda: self._allocate_and_evaluate(
                make_allocator("steinke"), spm_size
            ),
        )

    def run_greedy(self, spm_size: int) -> ExperimentResult:
        """Allocate with the greedy ablation and simulate the outcome."""
        return self._cached_result(
            "greedy", spm_size,
            lambda: self._allocate_and_evaluate(
                make_allocator("greedy"), spm_size
            ),
        )

    def run_grid(self, algorithm: str, spm_sizes,
                 max_regions: int = 4) -> list[ExperimentResult]:
        """Evaluate one allocator across a whole capacity axis.

        The conflict graph is profiled once and shared by every
        capacity step, solved in ascending order.  Each step goes
        through the allocator's own entry point (:meth:`run_casa`,
        :meth:`run_steinke`, :meth:`run_greedy`, :meth:`run_ross`), so
        it shares its ``result`` artifact with every other evaluation
        of the same (allocator, size) pair.  Results come back in the
        order of *spm_sizes*.

        Args:
            algorithm: ``casa`` | ``steinke`` | ``greedy`` | ``ross``
                | ``baseline``.
            spm_sizes: scratchpad (or, for Ross, loop-cache)
                capacities in bytes.
            max_regions: Ross's region budget (ignored otherwise).
        """
        entry_points = {
            "baseline": lambda size: self.baseline_result(),
            "casa": self.run_casa,
            "steinke": self.run_steinke,
            "greedy": self.run_greedy,
            "ross": lambda size: self.run_ross(size, max_regions),
        }
        if algorithm not in entry_points:
            raise ConfigurationError(
                f"unknown grid algorithm {algorithm!r} "
                f"(expected one of {sorted(entry_points)})"
            )
        run = entry_points[algorithm]
        sizes = tuple(spm_sizes)
        by_size: dict[int, ExperimentResult] = {}
        for size in sorted(set(sizes)):
            # Each capacity step is one logical design point: its own
            # span, and its wall time feeds the point.evaluate
            # percentile sketch.
            started = time.perf_counter()
            with span("point.evaluate", workload=self._program.name,
                      algorithm=algorithm, spm_size=size):
                by_size[size] = run(size)
            metrics.observe("point.evaluate.seconds",
                            time.perf_counter() - started)
        return [by_size[size] for size in sizes]

    def run_overlay(self, spm_size: int,
                    allocator: "OverlayAllocator | None" = None
                    ) -> ExperimentResult:
        """Allocate per-phase scratchpad contents and simulate them.

        Implements the paper's announced future work (dynamic copying /
        overlay): detect the program's top-level-loop phases, bin the
        profiling run per phase, solve the overlay ILP, and replay with
        the scratchpad contents swapped (and the copy traffic charged)
        at every phase transition.
        """
        from repro.core.overlay import (
            OverlayAllocator,
            PhasedConflictData,
        )

        allocator = allocator or OverlayAllocator()
        partition, phased_report = self._phase_profile()
        data = PhasedConflictData.from_simulation(
            self._memory_objects, phased_report, partition.num_phases
        )
        model = self.spm_energy_model(spm_size)
        overlay = allocator.allocate(data, spm_size, model)

        phase_plans: dict[int, dict] = {}
        resident_sizes: dict[str, int] = {}
        for phase_index, resident in enumerate(overlay.residents):
            image = LinkedImage(
                self._program,
                self._memory_objects,
                spm_resident=resident,
                spm_size=spm_size,
                placement=Placement.COPY,
                main_base=self._config.main_base,
                spm_base=self._config.spm_base,
                object_sizes=self._baseline_image.object_sizes,
            )
            phase_plans[phase_index] = image.all_plans()
            for name in resident:
                resident_sizes[name] = \
                    image.memory_object(name).unpadded_size

        hierarchy = HierarchyConfig(
            cache=self._config.cache, spm_size=spm_size
        )
        from repro.memory.hierarchy import InstructionMemorySimulator
        simulator = InstructionMemorySimulator(
            self._baseline_image, hierarchy,
            spm_base=self._config.spm_base,
        )
        report = simulator.run_overlay(
            self._block_sequence,
            partition.block_phase,
            phase_plans,
            {i: r for i, r in enumerate(overlay.residents)},
            resident_sizes,
            charge_initial_copies=(
                allocator.config.charge_initial_copies
            ),
        )
        energy_model = build_energy_model(hierarchy)
        allocation = Allocation(
            algorithm="casa-overlay",
            spm_resident=overlay.all_residents,
            placement=Placement.COPY,
            predicted_energy=overlay.predicted_energy,
            solver_nodes=overlay.solver_nodes,
            capacity=spm_size,
            used_bytes=max(
                (sum(resident_sizes[n] for n in resident)
                 for resident in overlay.residents),
                default=0,
            ),
        )
        return ExperimentResult(
            allocation=allocation,
            report=report,
            energy=compute_energy(report, energy_model),
            model=energy_model,
        )

    def _phase_profile(self):
        """Phase partition + phase-tracked baseline run (cached)."""
        if not hasattr(self, "_phase_profile_cache"):
            from repro.core.phases import detect_phases
            partition = detect_phases(self._program)
            report = simulate(
                self._baseline_image,
                self._baseline_config,
                self._block_sequence,
                block_phases=partition.block_phase,
                backend="reference",
            )
            self._phase_profile_cache = (partition, report)
        return self._phase_profile_cache

    def run_ross(self, lc_size: int,
                 max_regions: int = 4) -> ExperimentResult:
        """Allocate a preloaded loop cache with Ross's heuristic."""
        return self._cached_result(
            "ross", lc_size,
            lambda: self._run_ross_direct(lc_size, max_regions),
            max_regions=max_regions,
        )

    def _run_ross_direct(self, lc_size: int,
                         max_regions: int) -> ExperimentResult:
        """Uncached Ross allocation + loop-cache simulation."""
        from repro.core.ross import RossLoopCacheAllocator

        lc_config = LoopCacheConfig(size=lc_size, max_regions=max_regions)
        allocation = RossLoopCacheAllocator(lc_config).allocate(
            self._graph, context=self.allocation_context()
        )
        return self.evaluate_loop_cache(allocation, lc_config)


def _compute_execution(program: Program, seed: int,
                       digest: str) -> ExecutionArtifact:
    """Run the profiling execution and wrap it as a stage artifact."""
    execution = execute_program(program, seed=seed)
    return ExecutionArtifact(
        digest, execution.block_sequence, execution.profile
    )
