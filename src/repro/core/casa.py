"""CASA — the Cache-Aware Scratchpad Allocation ILP (section 4).

Decision variables (eq. 7): ``l(x_i) = 0`` if object ``x_i`` goes to the
scratchpad, 1 if it stays cacheable.  The quadratic miss term
``l(x_i) * l(x_j) * m_ij`` of eq. 11 is linearised with the product
variable ``L(x_i, x_j)`` (:func:`add_product`).  The objective (eq. 16)
sums eq. 12 over all objects; eq. 17 bounds the scratchpad content by
the capacity, counting *unpadded* sizes (the NOPs are stripped before
the copy to the scratchpad).

Three implementation refinements (flagged, documented in DESIGN.md):

* ``L`` gets the single row ``l_i + l_j - L <= 1`` instead of the
  paper's eqs. 13-15: every ``L`` carries the cost
  ``m_ij * (E_miss - E_hit) >= 0`` in a minimisation, so only that row
  ever binds and eqs. 13-15 are implied at the optimum;
* self-conflict misses ``m_ii`` multiply ``l(x_i) * l(x_i) = l(x_i)``
  and are charged linearly;
* compulsory misses of a cached object are charged via
  ``include_compulsory`` (on by default).

Setting ``conflict_term=False`` drops the edge terms entirely, yielding a
cache-blind objective — the ablation that isolates the paper's
contribution.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.allocation import Allocation, AllocationContext
from repro.core.conflict_graph import ConflictGraph
from repro.energy.model import EnergyModel
from repro.errors import DegradedResultError, SolverError
from repro.obs import metrics
from repro.ilp import LinExpr, Model, Sense, SolveStatus, Variable
from repro.traces.layout import Placement


def add_product(model: Model, name: str, l_i: LinExpr | Variable,
                l_j: LinExpr | Variable) -> Variable:
    """Add the variable ``L = l_i * l_j`` of two 0/1 locations.

    ``L`` is continuous in [0, 1] with the one row
    ``l_i + l_j - L <= 1``, which forces ``L = 1`` when both objects
    stay cached.  The paper's eqs. 13-15 (``L <= l_i``, ``L <= l_j``,
    ``l_i + l_j - 2L <= 1``) would only push ``L`` down, and so does
    the objective: callers must give ``L`` a non-negative cost in a
    minimisation (a miss count times ``E_miss - E_hit``, which
    :class:`~repro.energy.model.EnergyModel` keeps non-negative).
    So both forms share the optimum and the set of optimal ``l``
    (among tied optima a solver may return either form a different
    one).
    """
    product = model.add_variable(name, 0.0, 1.0)
    model.add_constraint(l_i + l_j - product <= 1, name)
    return product


@dataclass(frozen=True)
class CasaConfig:
    """Options of the CASA allocator.

    Attributes:
        include_compulsory: charge first-touch misses of cached objects.
        conflict_term: include the conflict-edge terms (the paper's
            contribution); disable only for ablation studies.
        max_nodes: HiGHS branch & bound node limit.
        max_seconds: HiGHS wall-clock budget (``None`` = unlimited).
        fallback: what to do when the solve budget is exhausted
            (``NODE_LIMIT`` / ``TIME_LIMIT``): ``"greedy"`` degrades
            to :class:`~repro.core.greedy_allocator.GreedyCasaAllocator`
            and tags the allocation ``solver_status="degraded"``;
            ``"raise"`` raises
            :class:`~repro.errors.DegradedResultError` instead.
    """

    include_compulsory: bool = True
    conflict_term: bool = True
    max_nodes: int = 200_000
    max_seconds: float | None = None
    fallback: str = "greedy"


class CasaAllocator:
    """Optimal cache-aware scratchpad allocation via 0/1 ILP."""

    name = "casa"

    def __init__(self, config: CasaConfig | None = None) -> None:
        self._config = config or CasaConfig()

    @property
    def config(self) -> CasaConfig:
        """The allocator's options."""
        return self._config

    def build_model(
        self,
        graph: ConflictGraph,
        spm_size: int,
        energy: EnergyModel,
    ) -> tuple[Model, dict[str, object]]:
        """Construct the ILP of section 4 (for inspection or solving).

        Returns:
            ``(model, l_vars)`` where ``l_vars`` maps object names to
            their location variables.
        """
        config = self._config
        model = Model("casa", Sense.MINIMIZE)
        # Objects with no fetches, no misses and no conflict edges gain
        # nothing from the scratchpad but would consume capacity, so
        # the optimum always keeps them cacheable: they get no
        # variables (equivalent to fixing l = 1).
        candidates = {
            name for name in graph.node_names
            if self._has_benefit(graph.node(name), graph)
        }
        location = {
            name: model.add_binary(f"l[{name}]")
            for name in graph.node_names if name in candidates
        }

        miss_premium = energy.cache_miss - energy.cache_hit
        hit_premium = energy.cache_hit - energy.spm_access
        objective = LinExpr()
        for node in graph.nodes():
            # eq. 12, constant and linear parts.
            objective = objective + node.fetches * energy.spm_access
            if node.name not in candidates:
                objective = objective + node.fetches * hit_premium
                continue
            linear = node.fetches * hit_premium
            extra_misses = node.self_misses if config.conflict_term else 0
            if config.include_compulsory:
                extra_misses += node.compulsory_misses
            linear += extra_misses * miss_premium
            objective = objective + linear * location[node.name]

        if config.conflict_term:
            for victim, evictor, weight in graph.edges():
                product = add_product(
                    model, f"L[{victim},{evictor}]",
                    location[victim], location[evictor],
                )
                objective = objective + (weight * miss_premium) * product

        # eq. 17: scratchpad capacity over unpadded sizes (objects
        # without variables stay cacheable and contribute nothing).
        capacity_expr = LinExpr.total(
            (1 - location[name]) * graph.node(name).size
            for name in location
        )
        model.add_constraint(capacity_expr <= spm_size, "capacity")
        model.set_objective(objective)
        return model, location

    @staticmethod
    def _has_benefit(node, graph: ConflictGraph) -> bool:
        """Whether the scratchpad could ever help this object."""
        return bool(
            node.fetches
            or node.self_misses
            or node.compulsory_misses
            or graph.conflicts_of(node.name)
            or graph.victims_of(node.name)
        )

    def allocate(
        self,
        graph: ConflictGraph,
        spm_size: int,
        energy: EnergyModel,
        *,
        context: AllocationContext | None = None,
    ) -> Allocation:
        """Pick the optimal scratchpad-resident set.

        *context* is accepted for :class:`repro.core.Allocator`
        protocol conformance and ignored — the ILP decides from the
        graph and the energy model alone.

        When the solve budget (``max_nodes`` / ``max_seconds``) runs
        out, the configured degradation ladder applies: with
        ``fallback="greedy"`` the greedy heuristic takes over and the
        returned allocation carries ``solver_status="degraded"`` (plus
        the nodes the exact solver burned), so reports can surface the
        loss of optimality.

        Raises:
            DegradedResultError: budget exhausted and
                ``fallback="raise"``.
            SolverError: the ILP is infeasible/unbounded or the solve
                errored (never budget exhaustion).
        """
        del context
        model, location = self.build_model(graph, spm_size, energy)
        if not location:
            return Allocation(
                algorithm=self.name,
                spm_resident=frozenset(),
                placement=Placement.COPY,
                predicted_energy=model.objective.constant,
                capacity=spm_size,
                used_bytes=0,
            )
        result = model.solve(max_nodes=self._config.max_nodes,
                             max_seconds=self._config.max_seconds)
        if result.status in (SolveStatus.NODE_LIMIT,
                             SolveStatus.TIME_LIMIT):
            return self._degrade(graph, spm_size, energy, result)
        if result.status is not SolveStatus.OPTIMAL:
            raise SolverError(
                f"CASA ILP not solved to optimality: {result.status.value}"
            )
        selected = frozenset(
            name for name, var in location.items()
            if result.binary_value(var) == 0
        )
        used = sum(graph.node(name).size for name in selected)
        # The objective at the rounded set, not over the solver's raw
        # products ``L`` (which carry noise of ~1e-16): the same
        # resident set always carries the same prediction.
        predicted = graph.predicted_energy(
            selected, energy, self._config.include_compulsory,
            self._config.conflict_term)
        return Allocation(
            algorithm=self.name,
            spm_resident=selected,
            placement=Placement.COPY,
            predicted_energy=predicted,
            solver_nodes=result.nodes_explored,
            solver_status=result.status.value,
            solver_gap=result.gap,
            capacity=spm_size,
            used_bytes=used,
        )

    def _degrade(self, graph: ConflictGraph, spm_size: int,
                 energy: EnergyModel, result) -> Allocation:
        """Apply the budget-exhaustion ladder (greedy or raise).

        The greedy fallback is deterministic and budget-free, so a
        degraded sweep still completes with a valid (merely
        sub-optimal) allocation; ``solver_status="degraded"`` and the
        exact solver's node count are carried into the result.
        """
        if self._config.fallback != "greedy":
            raise DegradedResultError(
                f"CASA solve budget exhausted "
                f"({result.status.value} after "
                f"{result.nodes_explored} nodes) and greedy fallback "
                f"is disabled",
                site="ilp.solve",
            )
        from repro.core.greedy_allocator import GreedyCasaAllocator

        metrics.inc("solver.degraded")
        greedy = GreedyCasaAllocator(
            include_compulsory=self._config.include_compulsory
        )
        allocation = greedy.allocate(graph, spm_size, energy)
        return dataclasses.replace(
            allocation,
            algorithm=self.name,
            solver_status="degraded",
            solver_nodes=result.nodes_explored,
        )
