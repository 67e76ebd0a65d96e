"""Ross (Gordon-Ross & Vahid) preloaded-loop-cache allocation.

The loop-cache controller can hold only a fixed number of regions
(typically 2-6; the paper's experiments use 4), each a contiguous
address range containing a loop or a whole function.  The published
heuristic greedily preloads the regions with the highest *execution-time
density* (execution count per byte) until the table or the SRAM is full.

Candidate regions here are the natural loops and the functions of the
program, mapped to the address spans their memory objects occupy in the
(unchanged, copy-semantics) main-memory image.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.allocation import Allocation, AllocationContext
from repro.core.conflict_graph import ConflictGraph
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError
from repro.memory.config import LoopCacheConfig, LoopRegion
from repro.program.cfg import NaturalLoop, program_loops
from repro.program.program import Program
from repro.traces.layout import LinkedImage, Placement
from repro.traces.memory_object import MemoryObject


@dataclass(frozen=True)
class _Candidate:
    region: LoopRegion
    fetches: int

    @property
    def density(self) -> float:
        return self.fetches / self.region.size


class RossLoopCacheAllocator:
    """Greedy execution-time-density preloading of loops and functions."""

    name = "ross"

    def __init__(self, config: LoopCacheConfig) -> None:
        self._config = config

    @property
    def config(self) -> LoopCacheConfig:
        """The loop cache being allocated for."""
        return self._config

    # ------------------------------------------------------------------

    def candidate_regions(
        self,
        program: Program,
        memory_objects: list[MemoryObject],
        image: LinkedImage,
        graph: ConflictGraph,
        config: LoopCacheConfig | None = None,
    ) -> list[_Candidate]:
        """Enumerate loop and function regions with their fetch counts.

        *config* overrides the constructor's loop-cache parameters
        (used by :meth:`allocate` when called with an explicit
        capacity).
        """
        config = config if config is not None else self._config
        block_home: dict[str, set[str]] = {}
        for mo in memory_objects:
            for fragment in mo.fragments:
                block_home.setdefault(fragment.block, set()).add(mo.name)
        # Each object's [start, end) span in the image, computed once:
        # every candidate scans all of them.
        extents: dict[str, tuple[int, int]] = {}
        for mo in memory_objects:
            base = image.base_address(mo.name)
            extents[mo.name] = (base, base + mo.padded_size)

        candidates: list[_Candidate] = []
        seen_spans: set[tuple[int, int]] = set()

        def add_region(name: str, block_names: set[str]) -> None:
            mo_names: set[str] = set()
            for block_name in block_names:
                mo_names |= block_home.get(block_name, set())
            if not mo_names:
                return
            start = min(extents[n][0] for n in mo_names)
            end = max(extents[n][1] for n in mo_names)
            span = (start, end)
            if span in seen_spans or end - start > config.size:
                return
            seen_spans.add(span)
            fetches = sum(
                graph.node(mo_name).fetches
                for mo_name, (mo_start, mo_end) in extents.items()
                if start <= mo_start and mo_end <= end
            )
            if fetches == 0:
                return
            candidates.append(
                _Candidate(
                    LoopRegion(name=name, start=start, size=end - start),
                    fetches,
                )
            )

        loops: dict[str, list[NaturalLoop]] = {}
        for loop in program_loops(program):
            loops.setdefault(loop.function, []).append(loop)
        for function in program.functions:
            for loop in loops.get(function.name, ()):
                add_region(f"loop:{loop.header}", set(loop.body))
            add_region(
                f"func:{function.name}",
                {block.name for block in function.blocks},
            )
        return candidates

    def allocate(
        self,
        graph: ConflictGraph,
        capacity: int | None = None,
        energy: EnergyModel | None = None,
        *,
        context: AllocationContext | None = None,
    ) -> Allocation:
        """Greedily preload the densest non-overlapping regions.

        Follows the unified :class:`repro.core.Allocator` protocol:
        the loop-region candidates come from the program structure, so
        *context* must carry the profiled program, its memory objects
        and the baseline image.  *capacity* (when given) overrides the
        constructor configuration's loop-cache size; *energy* is
        ignored — the heuristic ranks by fetch density alone.

        Raises:
            ConfigurationError: when *context* lacks the program,
                memory objects or image.
        """
        del energy
        if context is None or context.program is None \
                or context.memory_objects is None \
                or context.image is None:
            raise ConfigurationError(
                "ross allocation requires an AllocationContext with "
                "program, memory_objects and image"
            )
        config = self._config
        if capacity is not None and capacity != config.size:
            config = replace(config, size=capacity)
        candidates = self.candidate_regions(
            context.program, context.memory_objects, context.image,
            graph, config=config,
        )
        candidates.sort(key=lambda c: (-c.density, c.region.start))

        chosen: list[LoopRegion] = []
        used = 0
        for candidate in candidates:
            region = candidate.region
            if len(chosen) >= config.max_regions:
                break
            if used + region.size > config.size:
                continue
            if any(
                region.start < other.end and other.start < region.end
                for other in chosen
            ):
                continue
            chosen.append(region)
            used += region.size

        return Allocation(
            algorithm=self.name,
            loop_regions=tuple(chosen),
            placement=Placement.COPY,
            capacity=config.size,
            used_bytes=used,
        )
