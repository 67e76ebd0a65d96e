"""Preloaded loop cache (Ross / Gordon-Ross & Vahid style).

A preloaded loop cache (figure 1(b) of the paper) is an SRAM that is
statically loaded with a *small, fixed number* of code regions (loops or
functions).  A controller holds the start and end address of each region
and, **on every instruction fetch**, compares the program counter against
the region table to decide whether to read the loop cache or the L1
I-cache.  The controller comparison is the architectural overhead that
limits the number of preloadable regions (typically 2-6; the paper's
experiments use 4).
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.memory.config import LoopCacheConfig, LoopRegion


class LoopCache:
    """A preloaded loop cache plus its address-matching controller."""

    def __init__(self, config: LoopCacheConfig,
                 regions: list[LoopRegion] | None = None) -> None:
        self._config = config
        self._regions: list[LoopRegion] = []
        self.accesses = 0        # fetches served by the loop-cache SRAM
        self.controller_checks = 0  # every fetch pays the tag-table check
        if regions:
            for region in regions:
                self.preload(region)

    @property
    def config(self) -> LoopCacheConfig:
        """The loop cache's configuration."""
        return self._config

    @property
    def regions(self) -> list[LoopRegion]:
        """Currently preloaded regions."""
        return list(self._regions)

    @property
    def used_bytes(self) -> int:
        """SRAM bytes consumed by the preloaded regions."""
        return sum(region.size for region in self._regions)

    def preload(self, region: LoopRegion) -> None:
        """Add a region to the controller table and SRAM.

        Raises:
            AllocationError: if the table is full, the SRAM capacity is
                exceeded, or the region overlaps one already preloaded.
        """
        if len(self._regions) >= self._config.max_regions:
            raise AllocationError(
                f"loop cache holds at most {self._config.max_regions} "
                "regions"
            )
        if self.used_bytes + region.size > self._config.size:
            raise AllocationError(
                f"region {region.name!r} ({region.size} B) does not fit: "
                f"{self.used_bytes}/{self._config.size} B used"
            )
        for existing in self._regions:
            if region.start < existing.end and existing.start < region.end:
                raise AllocationError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)

    def lookup(self, address: int) -> bool:
        """Controller check for one fetch; ``True`` if the loop cache
        serves it."""
        self.controller_checks += 1
        for region in self._regions:
            if region.covers(address):
                return True
        return False

    def access_words(self, address: int, num_words: int) -> int:
        """Fetch up to *num_words* sequential words starting at *address*.

        Every word pays a controller check; words inside a preloaded
        region are served by the loop cache.

        Returns:
            The number of words served by the loop cache (the rest must
            be fetched through the regular cache path by the caller).
        """
        served = 0
        for index in range(num_words):
            if self.lookup(address + 4 * index):
                served += 1
        self.accesses += served
        return served

    def reset_statistics(self) -> None:
        """Clear counters but keep the preloaded regions."""
        self.accesses = 0
        self.controller_checks = 0
