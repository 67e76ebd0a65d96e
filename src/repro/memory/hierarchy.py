"""The instruction-memory hierarchy simulator.

Replays an executed basic-block sequence (from
:func:`repro.program.executor.execute_program`) through the fetch plans
of a :class:`~repro.traces.layout.LinkedImage`, dispatching every fetch
to the scratchpad, the preloaded loop cache, or the I-cache + main
memory, and producing a :class:`~repro.memory.stats.SimulationReport`.

Call/return precision: when a trace-exit jump sits *after* a call
instruction, the core fetches it when the callee returns (the return
address points at the jump).  The simulator therefore keeps a stack of
pending call tails that is pushed on calls and popped on returns, so the
fetch stream is cycle-exact with respect to block ordering.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import ConfigurationError, InjectedFault, \
    SimulationError
from repro.memory.config import HierarchyConfig
from repro.memory.stats import SimulationReport
from repro.obs import metrics
from repro.obs.trace import span
from repro.resilience.faults import maybe_inject

if TYPE_CHECKING:
    from repro.memory.config import LoopRegion
    from repro.memory.kernel.stream import FetchStream
    from repro.obs.events import EventRecorder
    from repro.traces.layout import BlockFetchPlan, FetchSegment, \
        LinkedImage

#: Valid values of the simulation ``backend`` knob.
BACKENDS = ("reference", "vector", "auto")

#: Environment override consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "CASA_BACKEND"


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend choice.

    ``None`` falls back to the :data:`BACKEND_ENV_VAR` environment
    variable and finally to ``"auto"`` (use the vector kernel whenever
    it can replay the run exactly, the reference simulator otherwise).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "auto"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {backend!r} "
            f"(choose from {', '.join(BACKENDS)})"
        )
    return backend


class InstructionMemorySimulator:
    """Simulates one hierarchy for one linked image.

    The reference interpreter: it and the component models it drives
    load with the first simulator built, so a run that replays on the
    vector kernel never imports them.
    """

    def __init__(
        self,
        image: LinkedImage,
        config: HierarchyConfig,
        spm_base: int | None = None,
        loop_regions: list[LoopRegion] | None = None,
    ) -> None:
        from repro.memory.cache import Cache
        from repro.memory.loopcache import LoopCache
        from repro.memory.mainmem import MainMemory
        from repro.memory.scratchpad import Scratchpad

        self._image = image
        self._config = config
        self.cache = Cache(config.cache) if config.cache else None
        self.l2_cache = (
            Cache(config.l2_cache, label="L2") if config.l2_cache else None
        )
        self.main_memory = MainMemory()
        self.scratchpad = (
            Scratchpad(config.spm_size, spm_base if spm_base is not None
                       else 0x0040_0000)
            if config.spm_size
            else None
        )
        self.loop_cache = (
            LoopCache(config.loop_cache, loop_regions or [])
            if config.loop_cache is not None
            else None
        )
        if loop_regions and self.loop_cache is None:
            raise ConfigurationError(
                "loop regions given but no loop cache configured"
            )

    # ------------------------------------------------------------------

    def run(self, block_sequence: list[str],
            block_phases: dict[str, int] | None = None
            ) -> SimulationReport:
        """Replay *block_sequence* and return the statistics.

        Args:
            block_sequence: executed block names.
            block_phases: optional map from (top-level) block names to
                execution-phase ids; when given, statistics are also
                binned per phase (used by the overlay extension).
        """
        return self._replay(block_sequence, block_phases, phase_plans=None,
                            phase_residents=None, resident_sizes=None)

    def run_overlay(
        self,
        block_sequence: list[str],
        block_phases: dict[str, int],
        phase_plans: dict[int, dict[str, BlockFetchPlan]],
        phase_residents: dict[int, frozenset[str]],
        resident_sizes: dict[str, int],
        charge_initial_copies: bool = False,
    ) -> SimulationReport:
        """Replay with per-phase scratchpad contents (overlay extension).

        At each transition into phase ``p``, every object resident in
        ``p`` but not in the previous phase is copied from main memory
        to the scratchpad; the copied words are counted in
        ``report.overlay_copy_words`` and as main-memory reads.

        Args:
            block_sequence: executed block names.
            block_phases: top-level block name -> phase id.
            phase_plans: per-phase fetch plans (from per-phase
                :class:`~repro.traces.layout.LinkedImage`\\ s).
            phase_residents: per-phase scratchpad-resident object sets.
            resident_sizes: unpadded byte size of every object that is
                resident in any phase.
            charge_initial_copies: also charge the phase-0 fill (off by
                default: the boot-time preload is free for the static
                allocators too).
        """
        return self._replay(
            block_sequence, block_phases, phase_plans, phase_residents,
            resident_sizes, charge_initial_copies=charge_initial_copies,
        )

    def _replay(
        self,
        block_sequence: list[str],
        block_phases: dict[str, int] | None,
        phase_plans: dict[int, dict[str, BlockFetchPlan]] | None,
        phase_residents: dict[int, frozenset[str]] | None,
        resident_sizes: dict[str, int] | None,
        charge_initial_copies: bool = False,
    ) -> SimulationReport:
        if self.cache is not None and \
                self.cache.config.policy == "opt":
            if phase_plans is not None:
                raise ConfigurationError(
                    "the 'opt' policy cannot drive overlay runs: "
                    "per-phase relinking changes the fetch plans, so "
                    "the next-use oracle is not precomputable"
                )
            self._install_opt_oracle(block_sequence)
        report = SimulationReport(num_block_executions=len(block_sequence))
        plans = self._image.all_plans()
        pending_tails: list[FetchSegment | None] = []
        track_phases = block_phases is not None
        phase = 0
        started = False
        if phase_plans is not None:
            plans = phase_plans[phase]

        last_index = len(block_sequence) - 1
        for index, block_name in enumerate(block_sequence):
            if track_phases:
                new_phase = block_phases.get(block_name, phase)
                if new_phase != phase or not started:
                    if phase_plans is not None:
                        self._overlay_transition(
                            report,
                            old=None if not started else
                            phase_residents[phase],
                            new=phase_residents[new_phase],
                            sizes=resident_sizes,
                            charge_initial=charge_initial_copies,
                        )
                        plans = phase_plans[new_phase]
                    phase = new_phase
                    if self.cache is not None:
                        self.cache.phase = phase
                started = True
            plan = plans[block_name]
            current_phase = phase if track_phases else None
            for segment in plan.segments:
                self._fetch_segment(segment, report, current_phase)
            if plan.ends_with_call:
                pending_tails.append(plan.tail_jump)
            elif plan.tail_jump is not None:
                if index < last_index and \
                        block_sequence[index + 1] == plan.fallthrough:
                    self._fetch_segment(plan.tail_jump, report,
                                        current_phase)
            if plan.ends_with_return and pending_tails:
                tail = pending_tails.pop()
                if tail is not None:
                    self._fetch_segment(tail, report, current_phase)

        if self.loop_cache is not None:
            report.lc_controller_checks = self.loop_cache.controller_checks
        report.main_memory_words = self.main_memory.word_reads
        if self.cache is not None:
            report.conflict_misses = self.cache.conflict_misses.copy()
            report.phase_conflicts = self.cache.phase_conflicts.copy()
        if self.l2_cache is not None:
            report.l2_hits = self.l2_cache.hits
            report.l2_misses = self.l2_cache.misses
        report.assert_identities()
        return report

    def _install_opt_oracle(self, block_sequence: list[str]) -> None:
        """Precompute Belady's next-use index for an OPT-policy L1.

        The compiled :class:`~repro.memory.kernel.stream.ProbeStream`
        for the L1's line size is positionally identical to the
        ``access_line`` calls this replay is about to issue (the
        property ``repro verify-kernel`` enforces), so its ``line``
        column is exactly the future the oracle needs.
        """
        from repro.memory.kernel.stream import compile_stream
        from repro.memory.replacement import OptOracle

        assert self.cache is not None
        line_size = self.cache.config.line_size
        stream = compile_stream(self._image, block_sequence)
        lines = stream.probes(line_size).line.tolist()
        self.cache.attach_oracle(lambda: OptOracle(lines))

    def _overlay_transition(self, report: SimulationReport,
                            old: frozenset[str] | None,
                            new: frozenset[str],
                            sizes: dict[str, int] | None,
                            charge_initial: bool) -> None:
        """Account the copy-in traffic of one phase transition."""
        assert sizes is not None
        if old is None and not charge_initial:
            return
        incoming = new - (old or frozenset())
        for name in incoming:
            words = sizes[name] // 4
            report.overlay_copy_words += words
            self.main_memory.read_words(words)

    # ------------------------------------------------------------------

    def _fetch_segment(self, segment: FetchSegment,
                       report: SimulationReport,
                       phase: int | None = None) -> None:
        stats = report.stats_for(segment.mo_name)
        sinks = [stats]
        if phase is not None:
            sinks.append(report.phase_stats_for(phase, segment.mo_name))
        for sink in sinks:
            sink.fetches += segment.num_words

        if segment.on_spm:
            if self.scratchpad is None:
                raise SimulationError(
                    f"segment of {segment.mo_name!r} mapped to a "
                    "scratchpad that does not exist"
                )
            self.scratchpad.access_words(segment.address, segment.num_words)
            for sink in sinks:
                sink.spm_accesses += segment.num_words
            return

        if self.loop_cache is not None:
            served = self.loop_cache.access_words(
                segment.address, segment.num_words
            )
            for sink in sinks:
                sink.lc_accesses += served
            if served == segment.num_words:
                return
            if served != 0:
                # Mixed segment: replay the cache-path words one by one.
                self._fetch_mixed_segment(segment, report, sinks)
                return

        self._fetch_cached(segment.address, segment.num_words,
                           segment.mo_name, sinks)

    def _fetch_mixed_segment(self, segment: FetchSegment,
                             report: SimulationReport, sinks) -> None:
        """Word-exact path for segments straddling a loop-cache region.

        ``access_words`` already counted the loop-cache words, so only
        the words *outside* the regions go through the cache here, one
        probe per word in address order.  The vector kernel mirrors
        exactly this order (``_cache_path`` in
        :mod:`repro.memory.kernel.vector` splits such segments into
        1-word segments): the probe count drives LFU reference counts
        and 2Q promotions, so it is part of the contract.
        """
        assert self.loop_cache is not None
        for offset in range(segment.num_words):
            address = segment.address + 4 * offset
            in_region = any(
                region.covers(address)
                for region in self.loop_cache.regions
            )
            if not in_region:
                self._fetch_cached(address, 1, segment.mo_name, sinks)

    def _fetch_cached(self, address: int, num_words: int,
                      mo_name: str, sinks) -> None:
        """Fetch a sequential word run through the I-cache."""
        if self.cache is None:
            # Cache-less hierarchy: every word goes off-chip.  We book
            # the words as "misses" so the accounting identity holds
            # and the energy model charges main-memory energy.
            self.main_memory.read_words(num_words)
            for sink in sinks:
                sink.cache_misses += num_words
            return
        line_size = self.cache.config.line_size
        position = address
        remaining = num_words
        while remaining > 0:
            line_id = position // line_size
            line_end = (line_id + 1) * line_size
            words_in_line = min(remaining, (line_end - position) // 4)
            compulsory_before = self.cache.compulsory_misses
            hit = self.cache.access_line(line_id, mo_name)
            if hit:
                for sink in sinks:
                    sink.cache_hits += words_in_line
            else:
                was_compulsory = (
                    self.cache.compulsory_misses > compulsory_before
                )
                for sink in sinks:
                    sink.cache_misses += 1
                    sink.cache_hits += words_in_line - 1
                    if was_compulsory:
                        sink.compulsory_misses += 1
                if self.l2_cache is not None:
                    if not self.l2_cache.access_line(line_id, mo_name):
                        self.main_memory.read_line(
                            self.cache.config.words_per_line
                        )
                else:
                    self.main_memory.read_line(
                        self.cache.config.words_per_line
                    )
            position += words_in_line * 4
            remaining -= words_in_line


def _active_recorder() -> EventRecorder | None:
    """The active event recorder; none can be active before
    :mod:`repro.obs.events` loads (see :func:`repro.obs.loaded`)."""
    events = obs.loaded("events")
    return events.active_recorder() if events is not None else None


def _choose_backend(
    backend: str,
    config: HierarchyConfig,
    loop_regions: list[LoopRegion] | None,
    block_phases: dict[str, int] | None,
) -> str:
    """Pick the concrete simulator for one run.

    ``auto`` silently falls back to the reference simulator when the
    kernel cannot replay the run exactly; ``vector`` raises on
    structurally unsupported configurations but degrades gracefully
    when an event recorder is active (event streams require per-probe
    interpretation).  Fallbacks are counted in the
    ``sim.kernel.fallbacks`` metric.
    """
    if backend == "reference":
        return "reference"
    from repro.memory.kernel.vector import unsupported_reason

    reason = unsupported_reason(
        config, block_phases=block_phases, loop_regions=loop_regions
    )
    if reason is None and _active_recorder() is not None:
        reason = "event recording requires the reference simulator"
        if backend == "vector":
            metrics.inc("sim.kernel.fallbacks")
            return "reference"
    if reason is None:
        return "vector"
    if backend == "vector":
        raise ConfigurationError(f"backend 'vector': {reason}")
    metrics.inc("sim.kernel.fallbacks")
    return "reference"


def simulate(
    image: LinkedImage,
    config: HierarchyConfig,
    block_sequence: list[str],
    spm_base: int | None = None,
    loop_regions: list[LoopRegion] | None = None,
    block_phases: dict[str, int] | None = None,
    backend: str | None = None,
    stream: FetchStream | None = None,
) -> SimulationReport:
    """One-call convenience wrapper around the simulator.

    Dispatches between the reference interpreter and the vectorized
    kernel (:mod:`repro.memory.kernel`) according to *backend*
    (``reference`` | ``vector`` | ``auto``; ``None`` consults the
    ``CASA_BACKEND`` environment variable, then defaults to ``auto``).
    Both backends produce bit-identical reports; *stream* lets callers
    reuse a pre-compiled fetch stream (e.g. an engine artifact).

    Emits a ``sim.hierarchy`` span and, when metrics are enabled,
    accumulates the report's access totals into the ``sim.*`` counters
    (``sim.cache_hits``, ``sim.cache_misses``, ``sim.spm_accesses``...)
    — the numbers ``repro report`` turns into cache hit rates.  The
    per-fetch inner loop itself carries no instrumentation.
    """
    backend = resolve_backend(backend)
    chosen = _choose_backend(backend, config, loop_regions, block_phases)
    with span("sim.hierarchy", blocks=len(block_sequence),
              backend=chosen) as sim_span:
        report = None
        if chosen == "vector":
            # The kernel (and numpy with it) loads on the vector path
            # only: a run that simulates nothing never imports it.
            from repro.memory.kernel.stream import compile_stream
            from repro.memory.kernel.vector import KernelUnsupported, \
                simulate_stream

            # Degradation ladder: any kernel fault — injected via the
            # ``kernel.replay`` site or a genuine replay limitation
            # surfacing late — falls back to the reference
            # interpreter, which is bit-identical by construction.
            try:
                maybe_inject("kernel.replay",
                             blocks=len(block_sequence))
                if stream is None:
                    stream = compile_stream(
                        image, block_sequence, spm_base=spm_base
                    )
                report = simulate_stream(stream, config,
                                         spm_base=spm_base,
                                         loop_regions=loop_regions or ())
            except (InjectedFault, KernelUnsupported):
                metrics.inc("sim.kernel.fallbacks")
                metrics.inc("resilience.kernel_fallbacks")
                sim_span.add(fallback="reference")
                chosen = "reference"
        if report is None:
            simulator = InstructionMemorySimulator(
                image, config, spm_base=spm_base,
                loop_regions=loop_regions
            )
            report = simulator.run(block_sequence,
                                   block_phases=block_phases)
        sim_span.add(fetches=report.total_fetches,
                     cache_misses=report.cache_misses)
        metrics.inc("sim.runs")
        metrics.inc("sim.fetches", report.total_fetches)
        metrics.inc("sim.cache_accesses", report.cache_accesses)
        metrics.inc("sim.cache_hits", report.cache_hits)
        metrics.inc("sim.cache_misses", report.cache_misses)
        metrics.inc("sim.spm_accesses", report.spm_accesses)
        metrics.inc("sim.lc_accesses", report.lc_accesses)
        recorder = _active_recorder()
        if recorder is not None:
            sim_span.add(events=recorder.total_events)
            metrics.set_gauge("events.total", float(recorder.total_events))
            for kind, count in recorder.counts.items():
                metrics.set_gauge(f"events.{kind}", float(count))
        return report
