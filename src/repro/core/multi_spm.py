"""Multi-scratchpad extension (paper, section 4).

"If we had more than one scratchpad at the same horizontal level in the
memory hierarchy, then we only need to repeat inequation (17) for every
scratchpad.  An additional constraint ensuring that a memory object is
assigned to at most one scratchpad is also required."

Variables: ``a[i][k] = 1`` iff object ``x_i`` is assigned to scratchpad
``k``; the cache indicator becomes ``l(x_i) = 1 - sum_k a[i][k]`` with
``sum_k a[i][k] <= 1``.  Each scratchpad has its own per-access energy
(they may have different capacities).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import AllocationContext
from repro.core.casa import add_product
from repro.core.conflict_graph import ConflictGraph
from repro.energy.banakar import scratchpad_access_energy
from repro.energy.model import EnergyModel
from repro.errors import SolverError
from repro.ilp import LinExpr, Model, Sense, SolveStatus


@dataclass(frozen=True)
class ScratchpadSpec:
    """One scratchpad of the multi-scratchpad hierarchy.

    Attributes:
        name: identifier used in the assignment result.
        size: capacity in bytes.
    """

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SolverError(
                f"scratchpad {self.name!r} needs a positive size"
            )

    @property
    def access_energy(self) -> float:
        """Per-access energy (nJ) from the Banakar model."""
        return scratchpad_access_energy(self.size)


@dataclass
class MultiSpmAllocation:
    """Assignment of memory objects to scratchpads.

    Attributes:
        assignment: object name -> scratchpad name (unassigned objects
            stay cacheable).
        predicted_energy: ILP objective value in nJ.
        solver_nodes: branch & bound nodes explored.
    """

    assignment: dict[str, str]
    predicted_energy: float
    solver_nodes: int

    def residents_of(self, spm_name: str) -> frozenset[str]:
        """Objects assigned to one scratchpad."""
        return frozenset(
            mo for mo, spm in self.assignment.items() if spm == spm_name
        )

    @property
    def all_residents(self) -> frozenset[str]:
        """Objects assigned to any scratchpad."""
        return frozenset(self.assignment)


class MultiScratchpadAllocator:
    """Optimal assignment over several scratchpads at one level."""

    name = "casa-multi-spm"

    def __init__(self, scratchpads: list[ScratchpadSpec],
                 include_compulsory: bool = True,
                 max_nodes: int = 200_000) -> None:
        if not scratchpads:
            raise SolverError("need at least one scratchpad")
        names = [spec.name for spec in scratchpads]
        if len(set(names)) != len(names):
            raise SolverError(f"duplicate scratchpad names: {names}")
        self._scratchpads = list(scratchpads)
        self._include_compulsory = include_compulsory
        self._max_nodes = max_nodes

    def allocate(self, graph: ConflictGraph,
                 capacity: int | None = None,
                 energy: EnergyModel | None = None,
                 *,
                 context: AllocationContext | None = None
                 ) -> MultiSpmAllocation:
        """Solve the extended ILP.

        Follows the unified allocator protocol: *capacity* and
        *context* are accepted and ignored — each scratchpad's
        capacity comes from its :class:`ScratchpadSpec`.  *energy*
        supplies the cache hit/miss energies; each scratchpad's access
        energy comes from its spec.

        Raises:
            SolverError: when *energy* is omitted, or when the ILP
                cannot be solved within the node limit.
        """
        del capacity, context
        if energy is None:
            raise SolverError(
                "multi-scratchpad allocation requires an energy model"
            )
        model = Model("casa-multi-spm", Sense.MINIMIZE)
        assign: dict[tuple[str, str], object] = {}
        location: dict[str, LinExpr] = {}
        # Objects the scratchpads can never help stay cacheable and get
        # no variables (see CasaAllocator._has_benefit).
        candidates = {
            node.name for node in graph.nodes()
            if node.fetches or node.self_misses
            or node.compulsory_misses
            or graph.conflicts_of(node.name)
            or graph.victims_of(node.name)
        }
        for node in graph.nodes():
            if node.name not in candidates:
                continue
            vars_for_node = []
            for spec in self._scratchpads:
                var = model.add_binary(f"a[{node.name},{spec.name}]")
                assign[(node.name, spec.name)] = var
                vars_for_node.append(var)
            total_assigned = LinExpr.total(vars_for_node)
            model.add_constraint(
                total_assigned <= 1, f"at_most_one[{node.name}]"
            )
            location[node.name] = 1 - total_assigned  # l(x_i)

        miss_premium = energy.cache_miss - energy.cache_hit
        objective = LinExpr()
        for node in graph.nodes():
            if node.name not in candidates:
                objective = objective + node.fetches * energy.cache_hit
                continue
            for spec in self._scratchpads:
                var = assign[(node.name, spec.name)]
                objective = objective + (
                    node.fetches * spec.access_energy
                ) * var
            extra = node.self_misses
            if self._include_compulsory:
                extra += node.compulsory_misses
            cached_cost = (
                node.fetches * energy.cache_hit + extra * miss_premium
            )
            objective = objective + location[node.name] * cached_cost

        for victim, evictor, weight in graph.edges():
            product = add_product(model, f"L[{victim},{evictor}]",
                                  location[victim], location[evictor])
            objective = objective + (weight * miss_premium) * product

        usages: list[LinExpr] = []
        for spec in self._scratchpads:
            usage = LinExpr.total(
                graph.node(name).size * assign[(name, spec.name)]
                for name in graph.node_names if name in candidates
            )
            model.add_constraint(
                usage <= spec.size, f"capacity[{spec.name}]"
            )
            usages.append(usage)

        # Symmetry breaking: identical scratchpads are interchangeable,
        # which makes naive branch & bound explore every permutation of
        # every solution.  Ordering their used capacity keeps at least
        # one optimum feasible and prunes the mirror copies.
        for index in range(len(self._scratchpads) - 1):
            first = self._scratchpads[index]
            second = self._scratchpads[index + 1]
            if first.size == second.size:
                model.add_constraint(
                    usages[index] - usages[index + 1] >= 0,
                    f"symmetry[{first.name},{second.name}]",
                )

        model.set_objective(objective)
        result = model.solve(max_nodes=self._max_nodes)
        if result.status is not SolveStatus.OPTIMAL:
            raise SolverError(
                f"multi-SPM ILP not optimal: {result.status.value}"
            )

        assignment: dict[str, str] = {}
        for (mo_name, spm_name), var in assign.items():
            if result.binary_value(var) == 1:
                assignment[mo_name] = spm_name
        assert result.objective is not None
        return MultiSpmAllocation(
            assignment=assignment,
            predicted_energy=result.objective,
            solver_nodes=result.nodes_explored,
        )
