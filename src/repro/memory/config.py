"""Configuration of the simulated memory hierarchy.

The frozen dataclasses that describe a hierarchy: the I-cache
(:class:`CacheConfig`), the preloaded loop cache and its regions
(:class:`LoopCacheConfig`, :class:`LoopRegion`) and the whole hierarchy
(:class:`HierarchyConfig`).  They live apart from the interpreters that
simulate them (:mod:`repro.memory.cache`, :mod:`repro.memory.loopcache`,
:mod:`repro.memory.hierarchy`), so a workload, an energy model or the
vector kernel can name a configuration without loading the reference
simulator.  Those modules re-export them under their old names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.bitops import is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of an instruction cache.

    Attributes:
        size: capacity in bytes.
        line_size: line (block) size in bytes.
        associativity: number of ways (1 = direct mapped).
        policy: replacement policy name — any entry of
            :data:`repro.memory.replacement.POLICIES` (``lru``,
            ``fifo``, ``random``, ``lfu``, ``2q``, ``arc``, ``opt``;
            see ``docs/POLICIES.md``).
    """

    size: int = 2048
    line_size: int = 16
    associativity: int = 1
    policy: str = "lru"

    def __post_init__(self) -> None:
        for name in ("size", "line_size", "associativity"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ConfigurationError(
                    f"cache {name} must be a power of two, got {value}"
                )
        if self.line_size > self.size:
            raise ConfigurationError(
                f"line size {self.line_size} exceeds cache size {self.size}"
            )
        if self.associativity * self.line_size > self.size:
            raise ConfigurationError(
                "cache cannot hold a full set: "
                f"{self.associativity} ways x {self.line_size} B "
                f"> {self.size} B"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets (``size / (associativity * line_size)``)."""
        return self.size // (self.associativity * self.line_size)

    @property
    def words_per_line(self) -> int:
        """Instruction words per cache line (4-byte words)."""
        return self.line_size // 4

    def map_line(self, line_id: int) -> int:
        """Set index of a memory line — the paper's ``Map`` function."""
        return line_id % self.num_sets


@dataclass(frozen=True)
class LoopRegion:
    """One preloaded code region.

    Attributes:
        name: identifier of the region (loop header or function name).
        start: first byte address covered (inclusive).
        size: region size in bytes.
    """

    name: str
    start: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigurationError(
                f"region {self.name!r} has non-positive size {self.size}"
            )
        if self.start < 0:
            raise ConfigurationError(
                f"region {self.name!r} has negative start {self.start:#x}"
            )

    @property
    def end(self) -> int:
        """One past the last covered address."""
        return self.start + self.size

    def covers(self, address: int) -> bool:
        """Whether *address* lies inside the region."""
        return self.start <= address < self.end


@dataclass(frozen=True)
class LoopCacheConfig:
    """Loop-cache parameters.

    Attributes:
        size: SRAM capacity in bytes.
        max_regions: controller table entries (the paper assumes 4).
    """

    size: int = 256
    max_regions: int = 4

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"negative loop-cache size: {self.size}")
        if self.max_regions < 1:
            raise ConfigurationError(
                f"need at least one region slot, got {self.max_regions}"
            )


@dataclass(frozen=True)
class HierarchyConfig:
    """What sits next to the I-cache (figure 1 of the paper).

    Exactly one of ``spm_size``/``loop_cache`` is normally used; a
    plain cache-only hierarchy has neither.

    Attributes:
        cache: the L1 I-cache configuration, or ``None`` for a
            cache-less (scratchpad + main memory) hierarchy.
        spm_size: scratchpad capacity in bytes (0 = no scratchpad).
        loop_cache: preloaded-loop-cache configuration, or ``None``.
    """

    cache: CacheConfig | None = CacheConfig()
    spm_size: int = 0
    loop_cache: LoopCacheConfig | None = None
    #: optional unified L2 I-cache between the L1 and main memory
    #: (section 4: the allocation "need not do anything" about it).
    l2_cache: CacheConfig | None = None

    def __post_init__(self) -> None:
        if self.spm_size and self.loop_cache is not None:
            raise ConfigurationError(
                "a hierarchy has either a scratchpad or a loop cache, "
                "not both (figure 1)"
            )
        if self.spm_size < 0:
            raise ConfigurationError(f"negative spm size: {self.spm_size}")
        if (self.cache is not None and self.cache.policy == "opt"
                and self.loop_cache is not None):
            # The OPT oracle is precomputed from the compiled fetch
            # stream; a loop cache filters probes word-by-word, so the
            # oracle would no longer match the L1's probe order.
            raise ConfigurationError(
                "the 'opt' policy cannot be combined with a loop cache"
            )
        if self.l2_cache is not None:
            if self.cache is None:
                raise ConfigurationError(
                    "an L2 cache requires an L1 cache"
                )
            if self.l2_cache.size < self.cache.size:
                raise ConfigurationError(
                    "the L2 must be at least as large as the L1"
                )
            if self.l2_cache.line_size != self.cache.line_size:
                raise ConfigurationError(
                    "L1 and L2 line sizes must match in this model"
                )
            if self.l2_cache.policy == "opt":
                # The L2's probe stream is the L1's miss stream, which
                # depends on the L1 replay — there is no precomputable
                # next-use oracle for it.
                raise ConfigurationError(
                    "the 'opt' policy is only available on the L1 "
                    "(the L2 probe stream is not precomputable)"
                )
