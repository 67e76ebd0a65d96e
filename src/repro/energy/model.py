"""The per-event energy table and energy accounting.

:class:`EnergyModel` collects the scalar per-event energies the
simulator's event counts are multiplied with; :func:`build_energy_model`
derives them from the hierarchy configuration using the CACTI/Banakar
models; :func:`compute_energy` turns a
:class:`~repro.memory.stats.SimulationReport` into a
:class:`EnergyBreakdown` — implementing the paper's eqs. 2 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.banakar import scratchpad_access_energy
from repro.energy.cacti import cache_access_energy, cache_refill_energy
from repro.energy.loopcache import (
    loop_cache_access_energy,
    loop_cache_controller_energy,
)
from repro.energy.mainmem import MAIN_MEMORY_WORD_ENERGY_NJ
from repro.errors import ConfigurationError
from repro.memory.config import HierarchyConfig
from repro.memory.stats import SimulationReport


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energies in nanojoules.

    Attributes:
        cache_hit: one word served by the I-cache (``E_Cache_hit``).
        cache_miss: one miss — tag probe, line fill from main memory
            and array refill (``E_Cache_miss``).
        spm_access: one word served by the scratchpad (``E_SP_hit``).
        lc_access: one word served by the loop-cache SRAM.
        lc_controller_check: one loop-cache controller lookup (paid per
            fetch in a loop-cache hierarchy).
        main_word: one uncached word read from main memory (used by
            cache-less hierarchies).
    """

    cache_hit: float = 0.0
    cache_miss: float = 0.0
    spm_access: float = 0.0
    lc_access: float = 0.0
    lc_controller_check: float = 0.0
    main_word: float = MAIN_MEMORY_WORD_ENERGY_NJ
    #: per-L2-probe energies (two-level hierarchies only); when an L2
    #: exists, ``cache_miss`` covers only the L1 probe + refill and the
    #: off-chip transfer moves into ``l2_miss``.
    l2_hit: float = 0.0
    l2_miss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cache_hit", "cache_miss", "spm_access", "lc_access",
                     "lc_controller_check", "main_word"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"negative energy for {name}")
        # A cached hierarchy's miss premium E_miss - E_hit must be
        # positive: the CASA ILP linearises its miss products with one
        # row that is exact only for a non-negative cost.
        if self.cache_hit > 0 and self.cache_miss <= self.cache_hit:
            raise ConfigurationError(
                "a miss must cost more than a hit "
                f"({self.cache_miss} <= {self.cache_hit})"
            )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy (nJ) by component, as reported in the paper's figures."""

    spm: float
    loop_cache: float
    lc_controller: float
    cache_hits: float
    cache_misses: float
    #: energy of overlay copy-in traffic (0 for static allocations).
    overlay_copies: float = 0.0
    #: L2 probe energy (two-level hierarchies only).
    l2: float = 0.0

    @property
    def total(self) -> float:
        """Total instruction-memory energy in nJ."""
        return (self.spm + self.loop_cache + self.lc_controller
                + self.cache_hits + self.cache_misses
                + self.overlay_copies + self.l2)

    @property
    def total_uj(self) -> float:
        """Total energy in µJ (the unit of the paper's table 1)."""
        return self.total / 1e3


def build_energy_model(
    config: HierarchyConfig,
    technology: "TechnologyNode | None" = None,
) -> EnergyModel:
    """Derive per-event energies for a hierarchy configuration.

    Cache miss energy follows the paper's accounting: the probing access
    plus the off-chip transfer of a full line plus the array refill.

    Args:
        config: the hierarchy.
        technology: optional process node; energies are scaled from the
            paper-era 0.5 µm baseline (on-chip and off-chip scale
            differently — see :mod:`repro.energy.technology`).
    """
    if technology is None:
        onchip = 1.0
        offchip = 1.0
    else:
        from repro.energy.technology import offchip_scale, onchip_scale
        onchip = onchip_scale(technology)
        offchip = offchip_scale(technology)
    main_word = MAIN_MEMORY_WORD_ENERGY_NJ * offchip

    cache_hit = 0.0
    cache_miss = 0.0
    l2_hit = 0.0
    l2_miss = 0.0
    if config.cache is not None:
        cache = config.cache
        cache_hit = onchip * cache_access_energy(
            cache.size, cache.line_size, cache.associativity
        )
        refill = onchip * cache_refill_energy(
            cache.size, cache.line_size, cache.associativity
        )
        if config.l2_cache is not None:
            # With an L2, the off-chip transfer happens only on an L2
            # miss; an L1 miss pays its probe + refill and one L2 probe
            # (accounted separately per L2 event).
            l2 = config.l2_cache
            cache_miss = cache_hit + refill
            l2_hit = onchip * cache_access_energy(
                l2.size, l2.line_size, l2.associativity
            )
            l2_miss = (
                l2_hit
                + l2.words_per_line * main_word
                + onchip * cache_refill_energy(
                    l2.size, l2.line_size, l2.associativity
                )
            )
        else:
            cache_miss = (
                cache_hit + cache.words_per_line * main_word + refill
            )
    else:
        # Cache-less hierarchy: the simulator books uncached words as
        # misses; each costs one off-chip word read.
        cache_miss = main_word

    spm = (
        onchip * scratchpad_access_energy(config.spm_size)
        if config.spm_size else 0.0
    )
    if config.loop_cache is not None:
        lc = onchip * loop_cache_access_energy(config.loop_cache.size)
        controller = onchip * loop_cache_controller_energy(
            config.loop_cache.max_regions
        )
    else:
        lc = 0.0
        controller = 0.0

    return EnergyModel(
        cache_hit=cache_hit,
        cache_miss=cache_miss,
        spm_access=spm,
        lc_access=lc,
        lc_controller_check=controller,
        main_word=main_word,
        l2_hit=l2_hit,
        l2_miss=l2_miss,
    )


def compute_energy(report: SimulationReport, model: EnergyModel
                   ) -> EnergyBreakdown:
    """Multiply event counts by per-event energies (eqs. 2 and 6).

    Overlay copy-in words (if any) cost one off-chip read plus one
    scratchpad write each.
    """
    return EnergyBreakdown(
        spm=report.spm_accesses * model.spm_access,
        loop_cache=report.lc_accesses * model.lc_access,
        lc_controller=report.lc_controller_checks
        * model.lc_controller_check,
        cache_hits=report.cache_hits * model.cache_hit,
        cache_misses=report.cache_misses * model.cache_miss,
        overlay_copies=report.overlay_copy_words
        * (model.main_word + model.spm_access),
        l2=(report.l2_hits * model.l2_hit
            + report.l2_misses * model.l2_miss),
    )
