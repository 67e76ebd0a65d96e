"""Cache set-pressure analysis.

A direct-mapped cache thrashes when several *hot* memory objects map
lines onto the same set.  This module computes, for every cache set,
the objects whose lines land there weighted by their fetch counts —
making the conflict graph's edges spatially explainable ("``T12`` and
``T40`` fight over sets 96-103").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.conflict_graph import ConflictGraph
from repro.memory.config import CacheConfig
from repro.traces.layout import LinkedImage
from repro.utils.tables import format_table


@dataclass
class SetPressure:
    """Contention summary of one cache set.

    Attributes:
        set_index: the cache set.
        occupants: object names with at least one line mapping here,
            with the per-object *fetch weight* (the object's fetch
            count divided across its lines).
    """

    set_index: int
    occupants: dict[str, float]

    @property
    def num_hot_occupants(self) -> int:
        """Objects with non-zero fetch weight on this set."""
        return sum(1 for weight in self.occupants.values() if weight > 0)

    @property
    def pressure(self) -> float:
        """Total fetch weight minus the largest occupant's share.

        Zero when a single object owns the set (no conflicts possible);
        grows when several hot objects overlap.
        """
        if not self.occupants:
            return 0.0
        total = sum(self.occupants.values())
        return total - max(self.occupants.values())


def cache_set_pressure(
    image: LinkedImage,
    cache: CacheConfig,
    graph: ConflictGraph,
) -> list[SetPressure]:
    """Compute per-set contention for a linked image.

    Only main-memory-resident (cacheable) objects participate.

    Returns:
        One :class:`SetPressure` per cache set, indexed 0..num_sets-1.
    """
    occupants: list[dict[str, float]] = [
        {} for _ in range(cache.num_sets)
    ]
    for mo in image.memory_objects:
        if image.on_spm(mo.name):
            continue
        base = image.base_address(mo.name)
        num_lines = mo.num_lines
        if num_lines == 0:
            continue
        weight_per_line = graph.node(mo.name).fetches / num_lines
        for line_offset in range(num_lines):
            line_id = (base // cache.line_size) + line_offset
            set_index = cache.map_line(line_id)
            per_set = occupants[set_index]
            per_set[mo.name] = per_set.get(mo.name, 0.0) + weight_per_line
    return [
        SetPressure(set_index=index, occupants=occupant_map)
        for index, occupant_map in enumerate(occupants)
    ]


def render_pressure_table(
    pressures: list[SetPressure],
    top: int = 10,
) -> str:
    """Render the *top* most contended sets as an ASCII table."""
    ranked = sorted(pressures, key=lambda p: -p.pressure)[:top]
    headers = ["set", "pressure", "hot objects (fetch weight)"]
    rows = []
    for entry in ranked:
        hot = sorted(
            ((name, weight) for name, weight in entry.occupants.items()
             if weight > 0),
            key=lambda item: -item[1],
        )[:4]
        description = ", ".join(
            f"{name}({weight:.0f})" for name, weight in hot
        )
        rows.append([entry.set_index, f"{entry.pressure:.0f}",
                     description])
    return format_table(headers, rows,
                        title=f"top {top} contended cache sets")
