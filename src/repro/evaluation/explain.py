"""Explain an allocation decision object by object.

The ILP's output is a set; this renders *why* each chosen object is
there (fetches moved to the cheap memory, conflict misses whose evictor
or victim went away) and why notable objects were left out (too big,
too cold, conflicts already resolved by a partner's allocation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Allocation
from repro.core.conflict_graph import ConflictGraph
from repro.energy.model import EnergyModel
from repro.utils.tables import format_table


@dataclass
class ObjectExplanation:
    """Why one object was (not) allocated.

    Attributes:
        name: object name.
        selected: whether it is scratchpad-resident.
        size: bytes it costs on the scratchpad.
        fetches: its fetch count ``f_i``.
        fetch_saving: energy saved by serving its fetches from the
            scratchpad (nJ).
        conflict_saving: energy saved by the conflict misses its
            allocation removes — as victim and as evictor (nJ).
        density: total saving per byte (the greedy's ranking metric).
    """

    name: str
    selected: bool
    size: int
    fetches: int
    fetch_saving: float
    conflict_saving: float

    @property
    def total_saving(self) -> float:
        """Fetch + conflict saving in nJ."""
        return self.fetch_saving + self.conflict_saving

    @property
    def density(self) -> float:
        """Saving per scratchpad byte."""
        return self.total_saving / self.size if self.size else 0.0


def explain_allocation(
    graph: ConflictGraph,
    allocation: Allocation,
    energy: EnergyModel,
) -> list[ObjectExplanation]:
    """Compute per-object explanations for a scratchpad allocation.

    Conflict savings are attributed to the allocated endpoint: if both
    endpoints of an edge are resident, the victim gets the credit (its
    misses disappear because it no longer lives in the cache).
    """
    resident = set(allocation.spm_resident)
    miss_premium = energy.cache_miss - energy.cache_hit
    hit_premium = energy.cache_hit - energy.spm_access

    explanations: list[ObjectExplanation] = []
    for node in graph.nodes():
        selected = node.name in resident
        fetch_saving = node.fetches * hit_premium if selected else 0.0
        conflict_saving = 0.0
        if selected:
            # misses of this object that vanish (it left the cache)
            conflict_saving += (
                node.self_misses + node.compulsory_misses
            ) * miss_premium
            conflict_saving += sum(
                weight for _, weight in graph.conflicts_of(node.name)
            ) * miss_premium
            # misses of others it caused, unless the victim also left
            conflict_saving += sum(
                weight
                for victim, weight in graph.victims_of(node.name)
                if victim not in resident
            ) * miss_premium
        explanations.append(ObjectExplanation(
            name=node.name,
            selected=selected,
            size=node.size,
            fetches=node.fetches,
            fetch_saving=fetch_saving,
            conflict_saving=conflict_saving,
        ))
    explanations.sort(key=lambda e: (-e.selected, -e.total_saving))
    return explanations


def solver_summary(allocation: Allocation) -> str:
    """One-line solver provenance for explanation headers.

    Surfaces the telemetry the ILP solve records into the allocation:
    outcome status, nodes explored and the proven optimality gap.
    Non-ILP allocators (no status) get a placeholder so the header
    stays well-formed.
    """
    if not allocation.solver_status:
        return f"solver: n/a ({allocation.algorithm} is not ILP-based)"
    if allocation.solver_gap is None:
        gap = "gap n/a"
    else:
        gap = f"proven gap {allocation.solver_gap * 100:.2f}%"
    return (f"solver: {allocation.solver_status} after "
            f"{allocation.solver_nodes} B&B nodes, {gap}")


def render_explanation(
    explanations: list[ObjectExplanation],
    top_rejected: int = 5,
) -> str:
    """Render the selected objects plus the hottest rejected ones."""
    headers = ["object", "bytes", "fetches", "fetch saving uJ",
               "conflict saving uJ", "per-byte nJ/B"]

    def row(e: ObjectExplanation) -> list[str]:
        return [
            e.name, str(e.size), str(e.fetches),
            f"{e.fetch_saving / 1e3:.2f}",
            f"{e.conflict_saving / 1e3:.2f}",
            f"{e.density:.1f}",
        ]

    selected = [e for e in explanations if e.selected]
    rejected = [e for e in explanations if not e.selected]
    rejected.sort(key=lambda e: -e.fetches)

    parts = [format_table(headers, [row(e) for e in selected],
                          title="scratchpad residents")]
    if rejected[:top_rejected]:
        parts.append("")
        parts.append(format_table(
            ["object", "bytes", "fetches"],
            [[e.name, e.size, e.fetches]
             for e in rejected[:top_rejected]],
            title=f"hottest {min(top_rejected, len(rejected))} "
                  "objects left in the cache",
        ))
    return "\n".join(parts)
