"""Unified code + data scratchpad allocation.

Steinke et al. [13] allocated *both* "program and data parts" to one
scratchpad; CASA's formulation extends the same way (section 4: repeat
the capacity constraint, keep per-object energy terms).  This module
shares a single scratchpad between instruction traces (with their
I-cache conflict graph) and data objects (with their D-cache conflict
graph): one ILP, two independent conflict structures, one capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.casa import add_product
from repro.core.conflict_graph import ConflictGraph
from repro.energy.model import EnergyModel
from repro.errors import SolverError
from repro.ilp import LinExpr, Model, Sense, SolveStatus
from repro.ilp.knapsack import KnapsackItem, knapsack_01


@dataclass
class UnifiedAllocation:
    """Scratchpad contents split between code and data.

    Attributes:
        code_resident: instruction traces on the scratchpad.
        data_resident: data objects on the scratchpad.
        predicted_energy: ILP objective (nJ) over both hierarchies.
        solver_nodes: branch & bound nodes explored.
        used_bytes: scratchpad bytes consumed.
    """

    code_resident: frozenset[str]
    data_resident: frozenset[str]
    predicted_energy: float
    solver_nodes: int
    used_bytes: int


class UnifiedCasaAllocator:
    """One CASA ILP over instruction traces and data objects."""

    name = "casa-unified"

    def __init__(self, include_compulsory: bool = True,
                 max_nodes: int = 200_000) -> None:
        self._include_compulsory = include_compulsory
        self._max_nodes = max_nodes

    def allocate(
        self,
        code_graph: ConflictGraph,
        code_energy: EnergyModel,
        data_graph: ConflictGraph,
        data_energy: EnergyModel,
        spm_size: int,
    ) -> UnifiedAllocation:
        """Solve the shared-capacity ILP.

        The two energy models normally share ``spm_access`` (it is the
        same SRAM) but differ in cache hit/miss energies (I-cache vs.
        D-cache geometry).

        Raises:
            SolverError: if object names collide across the two graphs
                or the ILP cannot be solved to optimality.
        """
        collisions = set(code_graph.node_names) & \
            set(data_graph.node_names)
        if collisions:
            raise SolverError(
                f"code/data name collision: {sorted(collisions)}"
            )
        model = Model("casa-unified", Sense.MINIMIZE)
        objective = LinExpr()
        capacity = LinExpr()
        locations: dict[str, object] = {}

        for prefix, graph, energy in (
            ("code", code_graph, code_energy),
            ("data", data_graph, data_energy),
        ):
            miss_premium = energy.cache_miss - energy.cache_hit
            hit_premium = energy.cache_hit - energy.spm_access
            candidates = {
                node.name for node in graph.nodes()
                if node.fetches or node.self_misses
                or node.compulsory_misses
                or graph.conflicts_of(node.name)
                or graph.victims_of(node.name)
            }
            location = {
                name: model.add_binary(f"l.{prefix}[{name}]")
                for name in graph.node_names if name in candidates
            }
            locations.update(location)
            for node in graph.nodes():
                objective = objective + node.fetches * energy.spm_access
                if node.name not in candidates:
                    objective = objective + \
                        node.fetches * hit_premium
                    continue
                linear = node.fetches * hit_premium
                extra = node.self_misses
                if self._include_compulsory:
                    extra += node.compulsory_misses
                linear += extra * miss_premium
                objective = objective + linear * location[node.name]
                capacity = capacity + \
                    (1 - location[node.name]) * node.size
            for victim, evictor, weight in graph.edges():
                product = add_product(
                    model, f"L.{prefix}[{victim},{evictor}]",
                    location[victim], location[evictor],
                )
                objective = objective + \
                    (weight * miss_premium) * product

        model.add_constraint(capacity <= spm_size, "capacity")
        model.set_objective(objective)

        if not locations:
            return UnifiedAllocation(
                code_resident=frozenset(),
                data_resident=frozenset(),
                predicted_energy=model.objective.constant,
                solver_nodes=0,
                used_bytes=0,
            )
        result = model.solve(max_nodes=self._max_nodes)
        if result.status is not SolveStatus.OPTIMAL:
            raise SolverError(
                f"unified ILP not optimal: {result.status.value}"
            )

        code_resident = frozenset(
            name for name in code_graph.node_names
            if name in locations
            and result.binary_value(locations[name]) == 0
        )
        data_resident = frozenset(
            name for name in data_graph.node_names
            if name in locations
            and result.binary_value(locations[name]) == 0
        )
        used = sum(
            code_graph.node(name).size for name in code_resident
        ) + sum(
            data_graph.node(name).size for name in data_resident
        )
        assert result.objective is not None
        return UnifiedAllocation(
            code_resident=code_resident,
            data_resident=data_resident,
            predicted_energy=result.objective,
            solver_nodes=result.nodes_explored,
            used_bytes=used,
        )


def unified_steinke(
    code_graph: ConflictGraph,
    code_energy: EnergyModel,
    data_graph: ConflictGraph,
    data_energy: EnergyModel,
    spm_size: int,
) -> UnifiedAllocation:
    """Steinke's original formulation: one knapsack over both kinds.

    Profit of every object is its fetch/access count times the saving
    of a scratchpad access over the respective cache's hit energy —
    conflict-blind, exactly as published.
    """
    items = [
        KnapsackItem(
            name=f"code:{node.name}",
            size=node.size,
            profit=node.fetches
            * (code_energy.cache_hit - code_energy.spm_access),
        )
        for node in code_graph.nodes()
    ] + [
        KnapsackItem(
            name=f"data:{node.name}",
            size=node.size,
            profit=node.fetches
            * (data_energy.cache_hit - data_energy.spm_access),
        )
        for node in data_graph.nodes()
    ]
    solution = knapsack_01(items, spm_size)
    code_resident = frozenset(
        name[len("code:"):] for name in solution.selected
        if name.startswith("code:")
    )
    data_resident = frozenset(
        name[len("data:"):] for name in solution.selected
        if name.startswith("data:")
    )
    return UnifiedAllocation(
        code_resident=code_resident,
        data_resident=data_resident,
        predicted_energy=float("nan"),
        solver_nodes=0,
        used_bytes=solution.total_size,
    )
