"""Scratchpad overlay: dynamic copying of memory objects (future work).

The paper's conclusion announces "dynamic copying (overlay) of memory
objects on the scratchpad" as the next step.  This module implements
that extension: the program is split into phases
(:mod:`repro.core.phases`), the profiling simulation is binned per
phase, and an extended ILP picks a *per-phase* scratchpad content,
paying an explicit copy cost whenever an object becomes resident at a
phase boundary:

* ``l[p][i] = 1`` iff object ``x_i`` stays cacheable during phase ``p``
  (eq. 7, per phase);
* copy indicator ``c[p][i] >= l[p-1][i] - l[p][i]`` — an object that
  was cacheable before and is scratchpad-resident now must be copied
  in; the phase-0 fill is free by default (static allocators also
  preload at boot for free);
* the capacity constraint (eq. 17) is repeated per phase;
* per-phase conflict terms use the per-phase miss counts ``m_ij^p``
  with the same linearisation as the static ILP.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.casa import add_product
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError, SolverError
from repro.ilp import LinExpr, Model, Sense, SolveStatus
from repro.memory.stats import SimulationReport
from repro.traces.memory_object import MemoryObject


@dataclass
class PhasedConflictData:
    """Per-phase profiling data at memory-object granularity.

    Attributes:
        num_phases: number of execution phases.
        sizes: object name -> unpadded size in bytes.
        fetches: ``(phase, name)`` -> instruction fetches.
        conflicts: ``(phase, victim, evictor)`` -> conflict misses
            (victim != evictor; self-conflicts are in ``self_misses``).
        self_misses: ``(phase, name)`` -> self-conflict misses.
        compulsory: ``(phase, name)`` -> first-touch misses.
    """

    num_phases: int
    sizes: dict[str, int]
    fetches: Counter = field(default_factory=Counter)
    conflicts: Counter = field(default_factory=Counter)
    self_misses: Counter = field(default_factory=Counter)
    compulsory: Counter = field(default_factory=Counter)

    @classmethod
    def from_simulation(
        cls,
        memory_objects: list[MemoryObject],
        report: SimulationReport,
        num_phases: int,
    ) -> "PhasedConflictData":
        """Build from a phase-tracked, cache-only profiling run."""
        if report.spm_accesses or report.lc_accesses:
            raise ConfigurationError(
                "phased conflict data must come from a cache-only run"
            )
        if not report.phase_mo_stats:
            raise ConfigurationError(
                "the profiling run was not phase-tracked "
                "(pass block_phases to the simulator)"
            )
        data = cls(
            num_phases=num_phases,
            sizes={mo.name: mo.unpadded_size for mo in memory_objects},
        )
        for (phase, name), stats in report.phase_mo_stats.items():
            data.fetches[(phase, name)] = stats.fetches
            data.compulsory[(phase, name)] = stats.compulsory_misses
        for (phase, victim, evictor), count in \
                report.phase_conflicts.items():
            if victim == evictor:
                data.self_misses[(phase, victim)] += count
            else:
                data.conflicts[(phase, victim, evictor)] += count
        return data

    @property
    def object_names(self) -> list[str]:
        """All object names, in layout order."""
        return list(self.sizes)


def overlay_predicted_energy(
    data: PhasedConflictData,
    residents: list[frozenset[str]] | list[set[str]],
    energy: EnergyModel,
    include_compulsory: bool = True,
    charge_initial_copies: bool = False,
) -> float:
    """Evaluate the overlay objective for a given per-phase assignment.

    The reference implementation of the ILP's objective — used by tests
    to verify optimality by brute force, and by callers to score
    hand-written overlay schedules.
    """
    if len(residents) != data.num_phases:
        raise ConfigurationError(
            f"need one resident set per phase "
            f"({len(residents)} != {data.num_phases})"
        )
    miss_premium = energy.cache_miss - energy.cache_hit
    copy_energy = energy.main_word + energy.spm_access
    total = 0.0
    for phase in range(data.num_phases):
        resident = residents[phase]
        for name in data.object_names:
            fetches = data.fetches.get((phase, name), 0)
            if name in resident:
                total += fetches * energy.spm_access
            else:
                total += fetches * energy.cache_hit
                extra = data.self_misses.get((phase, name), 0)
                if include_compulsory:
                    extra += data.compulsory.get((phase, name), 0)
                total += extra * miss_premium
            # copy-in cost
            words = data.sizes[name] // 4
            if name in resident:
                previous_resident = (
                    phase > 0 and name in residents[phase - 1]
                )
                if phase == 0:
                    if charge_initial_copies:
                        total += words * copy_energy
                elif not previous_resident:
                    total += words * copy_energy
        for (p, victim, evictor), weight in data.conflicts.items():
            if p != phase:
                continue
            if victim not in resident and evictor not in resident:
                total += weight * miss_premium
    return total


@dataclass
class OverlayAllocation:
    """Per-phase scratchpad contents chosen by the overlay ILP.

    Attributes:
        residents: per-phase frozensets of scratchpad-resident objects.
        predicted_energy: ILP objective in nJ (incl. copy energy).
        predicted_copy_words: words the model expects to copy.
        solver_nodes: branch & bound nodes explored.
    """

    residents: list[frozenset[str]]
    predicted_energy: float
    predicted_copy_words: int
    solver_nodes: int

    @property
    def num_phases(self) -> int:
        """Number of phases."""
        return len(self.residents)

    @property
    def all_residents(self) -> frozenset[str]:
        """Objects resident during at least one phase."""
        result: set[str] = set()
        for resident in self.residents:
            result |= resident
        return frozenset(result)


@dataclass(frozen=True)
class OverlayConfig:
    """Options of the overlay allocator.

    Attributes:
        include_compulsory: charge first-touch misses of cached objects.
        charge_initial_copies: charge the phase-0 scratchpad fill
            (default off — static allocation preloads at boot for free).
        max_nodes: branch & bound node limit.
    """

    include_compulsory: bool = True
    charge_initial_copies: bool = False
    max_nodes: int = 400_000


class OverlayAllocator:
    """Optimal per-phase scratchpad contents with copy costs."""

    name = "casa-overlay"

    def __init__(self, config: OverlayConfig | None = None) -> None:
        self._config = config or OverlayConfig()

    @property
    def config(self) -> OverlayConfig:
        """The allocator's options."""
        return self._config

    def copy_word_energy(self, energy: EnergyModel) -> float:
        """Energy (nJ) to move one word into the scratchpad.

        One off-chip read plus one scratchpad write.
        """
        return energy.main_word + energy.spm_access

    def allocate(
        self,
        data: PhasedConflictData,
        spm_size: int,
        energy: EnergyModel,
    ) -> OverlayAllocation:
        """Solve the overlay ILP.

        Raises:
            SolverError: if the ILP cannot be solved to optimality.
        """
        config = self._config
        model = Model("casa-overlay", Sense.MINIMIZE)
        # Objects never fetched (and never missing) in any phase can
        # only cost capacity/copies: keep them cacheable, no variables.
        involved: set[str] = set()
        for (_, name), count in data.fetches.items():
            if count:
                involved.add(name)
        for (_, name), count in data.self_misses.items():
            if count:
                involved.add(name)
        for (_, name), count in data.compulsory.items():
            if count:
                involved.add(name)
        for (_, victim, evictor), count in data.conflicts.items():
            if count:
                involved.add(victim)
                involved.add(evictor)
        names = [n for n in data.object_names if n in involved]
        phases = range(data.num_phases)
        if not names:
            # Nothing is ever fetched: everything stays cacheable.
            return OverlayAllocation(
                residents=[frozenset() for _ in phases],
                predicted_energy=0.0,
                predicted_copy_words=0,
                solver_nodes=0,
            )

        cached = {
            (p, name): model.add_binary(f"l[{p},{name}]")
            for p in phases for name in names
        }

        miss_premium = energy.cache_miss - energy.cache_hit
        hit_premium = energy.cache_hit - energy.spm_access
        copy_energy = self.copy_word_energy(energy)
        objective = LinExpr()
        copy_words_expr = LinExpr()

        for p in phases:
            for name in names:
                fetches = data.fetches.get((p, name), 0)
                objective = objective + fetches * energy.spm_access
                linear = fetches * hit_premium
                extra = data.self_misses.get((p, name), 0)
                if config.include_compulsory:
                    extra += data.compulsory.get((p, name), 0)
                linear += extra * miss_premium
                if linear:
                    objective = objective + linear * cached[(p, name)]

                # copy-in indicator
                words = data.sizes[name] // 4
                if words == 0:
                    continue
                if p == 0:
                    if config.charge_initial_copies:
                        copy_var = model.add_variable(
                            f"c[0,{name}]", 0.0, 1.0
                        )
                        model.add_constraint(
                            copy_var + cached[(0, name)] >= 1
                        )
                        objective = objective + (
                            words * copy_energy
                        ) * copy_var
                        copy_words_expr = copy_words_expr + \
                            words * copy_var
                    continue
                copy_var = model.add_variable(f"c[{p},{name}]", 0.0, 1.0)
                model.add_constraint(
                    copy_var - cached[(p - 1, name)]
                    + cached[(p, name)] >= 0,
                    f"copyin[{p},{name}]",
                )
                objective = objective + (words * copy_energy) * copy_var
                copy_words_expr = copy_words_expr + words * copy_var

            # eq. 17 per phase
            usage = LinExpr.total(
                (1 - cached[(p, name)]) * data.sizes[name]
                for name in names
            )
            model.add_constraint(usage <= spm_size, f"capacity[{p}]")

        # per-phase conflict terms with linearisation
        for (p, victim, evictor), weight in sorted(data.conflicts.items()):
            product = add_product(model, f"L[{p},{victim},{evictor}]",
                                  cached[(p, victim)],
                                  cached[(p, evictor)])
            objective = objective + (weight * miss_premium) * product

        model.set_objective(objective)
        result = model.solve(max_nodes=config.max_nodes)
        if result.status is not SolveStatus.OPTIMAL:
            raise SolverError(
                f"overlay ILP not optimal: {result.status.value}"
            )

        residents = [
            frozenset(
                name for name in names
                if result.binary_value(cached[(p, name)]) == 0
            )
            for p in phases
        ]
        assert result.objective is not None
        copy_words = int(round(copy_words_expr.evaluate(result.values)))
        return OverlayAllocation(
            residents=residents,
            predicted_energy=result.objective,
            predicted_copy_words=copy_words,
            solver_nodes=result.nodes_explored,
        )
