"""Conflict-aware code placement (Tomiyama/Yasuura-style baseline).

The paper's related work (section 2) discusses *code placement*
techniques [10, 14] that reduce I-cache misses by choosing **where** in
main memory each trace sits, instead of (or before) deciding what to
copy to a scratchpad.  This module provides that complementary baseline
so placement and allocation can be compared and combined:

* traces are placed hottest-first;
* for each trace the greedy evaluates every cache-set alignment and
  picks the one minimising the overlap with already-placed hot code,
  then realises that alignment by inserting cold traces as padding.

The result is a permutation of the memory objects; the existing
:class:`~repro.traces.layout.LinkedImage` consumes it directly (traces
are relocatable by construction).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.conflict_graph import ConflictGraph
from repro.errors import ConfigurationError
from repro.memory.config import CacheConfig
from repro.traces.memory_object import MemoryObject


@dataclass
class PlacementResult:
    """Outcome of conflict-aware placement.

    Attributes:
        order: the memory objects in their new layout order.
        predicted_pressure: sum over cache sets of the fetch weight
            beyond the heaviest single occupant — the same contention
            metric as :mod:`repro.analysis.setpressure`; lower means
            less predicted conflict.
    """

    order: list[MemoryObject]
    predicted_pressure: float


def _pressure(set_occupants: list[dict[str, float]]) -> float:
    total = 0.0
    for occupants in set_occupants:
        if occupants:
            weight = sum(occupants.values())
            total += weight - max(occupants.values())
    return total


class ConflictAwarePlacer:
    """Greedy hot-first trace placement over the cache-set space."""

    name = "tomiyama-placement"

    def __init__(self, cache: CacheConfig) -> None:
        self._cache = cache

    def place(
        self,
        memory_objects: list[MemoryObject],
        graph: ConflictGraph,
    ) -> PlacementResult:
        """Reorder *memory_objects* to spread hot traces across sets."""
        if not memory_objects:
            raise ConfigurationError("nothing to place")
        num_sets = self._cache.num_sets

        weights = {
            mo.name: graph.node(mo.name).fetches / max(1, mo.num_lines)
            for mo in memory_objects
        }
        hot = [mo for mo in memory_objects if weights[mo.name] > 0]
        cold = [mo for mo in memory_objects if weights[mo.name] == 0]
        hot.sort(key=lambda mo: -weights[mo.name] * mo.num_lines)

        set_occupants: list[dict[str, float]] = [
            {} for _ in range(num_sets)
        ]
        order: list[MemoryObject] = []
        cursor_lines = 0

        def record(mo: MemoryObject, start_line: int) -> None:
            for offset in range(mo.num_lines):
                occupants = set_occupants[(start_line + offset)
                                          % num_sets]
                occupants[mo.name] = (
                    occupants.get(mo.name, 0.0) + weights[mo.name]
                )

        def alignment_cost(mo: MemoryObject, alignment: int) -> float:
            cost = 0.0
            for offset in range(min(mo.num_lines, num_sets)):
                occupants = set_occupants[(alignment + offset)
                                          % num_sets]
                cost += sum(occupants.values())
            return cost

        cold_iter = iter(cold)
        for mo in hot:
            best_alignment = cursor_lines % num_sets
            best_cost = alignment_cost(mo, best_alignment)
            for alignment in range(num_sets):
                cost = alignment_cost(mo, alignment)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_alignment = alignment
            # Realise the alignment by inserting cold padding.
            while cursor_lines % num_sets != best_alignment:
                filler = next(cold_iter, None)
                if filler is None:
                    break  # no padding left: place at the cursor
                order.append(filler)
                record(filler, cursor_lines)
                cursor_lines += filler.num_lines
            order.append(mo)
            record(mo, cursor_lines)
            cursor_lines += mo.num_lines

        for filler in cold_iter:
            order.append(filler)
            record(filler, cursor_lines)
            cursor_lines += filler.num_lines

        return PlacementResult(
            order=order,
            predicted_pressure=_pressure(set_occupants),
        )
