"""The conflict graph G = (X, E) of section 3.3.

Vertices are memory objects; the weight ``f_i`` of vertex ``x_i`` is its
total instruction fetches.  A directed edge ``e_ij`` with weight ``m_ij``
records that ``m_ij`` cache misses of ``x_i`` happened because ``x_j``
replaced its lines.  Two refinements the implementation keeps explicit
(see DESIGN.md):

* *self-conflicts* ``m_ii`` (an object larger than the cache evicting
  its own lines) are stored per node, not as an edge;
* *compulsory* (first-touch) misses carry no edge and are stored per
  node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError
from repro.memory.stats import SimulationReport
from repro.obs import metrics
from repro.obs.trace import span
from repro.traces.memory_object import MemoryObject


@dataclass
class ConflictNode:
    """One vertex of the conflict graph.

    Attributes:
        name: memory-object name.
        fetches: the vertex weight ``f_i`` — total instruction fetches,
            which is hierarchy-independent (eq. 4 discussion).
        size: the object's unpadded size in bytes (what it costs on the
            scratchpad, eq. 17).
        compulsory_misses: first-touch misses observed while profiling.
        self_misses: ``m_ii`` — misses caused by the object itself.
    """

    name: str
    fetches: int
    size: int
    compulsory_misses: int = 0
    self_misses: int = 0


class ConflictGraph:
    """Directed, weighted conflict graph over memory objects."""

    def __init__(self) -> None:
        self._nodes: dict[str, ConflictNode] = {}
        self._edges: dict[tuple[str, str], int] = {}
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        memory_objects: list[MemoryObject],
        report: SimulationReport,
    ) -> "ConflictGraph":
        """Build the graph from a profiling simulation.

        The report must come from a cache-only hierarchy (no scratchpad,
        no loop cache), so every fetch went through the cache and the
        eviction attribution is complete.
        """
        if report.spm_accesses or report.lc_accesses:
            raise ConfigurationError(
                "conflict graphs must be profiled on a cache-only "
                "hierarchy (found scratchpad/loop-cache accesses)"
            )
        with span("graph.build") as build_span:
            graph = cls()
            for mo in memory_objects:
                stats = report.mo_stats.get(mo.name)
                graph.add_node(
                    ConflictNode(
                        name=mo.name,
                        fetches=stats.fetches if stats else 0,
                        size=mo.unpadded_size,
                        compulsory_misses=(
                            stats.compulsory_misses if stats else 0
                        ),
                    )
                )
            conflicts = report.conflict_misses.items()
            for (victim, evictor), count in conflicts:
                if victim == evictor:
                    graph._nodes[victim].self_misses += count
                else:
                    graph.add_edge(victim, evictor, count)
            build_span.add(nodes=graph.num_nodes,
                           edges=graph.num_edges)
            metrics.inc("graph.builds")
            metrics.inc("graph.nodes", graph.num_nodes)
            metrics.inc("graph.edges", graph.num_edges)
        return graph

    def add_node(self, node: ConflictNode) -> None:
        """Add a vertex (objects must be unique by name)."""
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._out[node.name] = []
        self._in[node.name] = []

    def add_edge(self, victim: str, evictor: str, misses: int) -> None:
        """Add edge ``e_ij``: *misses* misses of *victim* due to *evictor*."""
        if victim not in self._nodes or evictor not in self._nodes:
            raise ConfigurationError(
                f"edge ({victim!r}, {evictor!r}) references unknown nodes"
            )
        if victim == evictor:
            raise ConfigurationError(
                "self-conflicts are stored on the node, not as edges"
            )
        if misses <= 0:
            raise ConfigurationError(f"edge weight must be positive: {misses}")
        key = (victim, evictor)
        if key in self._edges:
            self._edges[key] += misses
        else:
            self._edges[key] = misses
            self._out[victim].append(evictor)
            self._in[evictor].append(victim)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        """Vertex names in insertion (layout) order."""
        return list(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed conflict edges."""
        return len(self._edges)

    def node(self, name: str) -> ConflictNode:
        """Vertex by name."""
        return self._nodes[name]

    def nodes(self) -> list[ConflictNode]:
        """All vertices in insertion order."""
        return list(self._nodes.values())

    def edge_weight(self, victim: str, evictor: str) -> int:
        """``m_ij`` (0 if no edge)."""
        return self._edges.get((victim, evictor), 0)

    def edges(self) -> list[tuple[str, str, int]]:
        """All edges as ``(victim, evictor, m_ij)``."""
        return [(v, e, m) for (v, e), m in self._edges.items()]

    def conflicts_of(self, victim: str) -> list[tuple[str, int]]:
        """The neighbourhood ``N_i``: evictors of *victim* with weights."""
        return [
            (evictor, self._edges[(victim, evictor)])
            for evictor in self._out[victim]
        ]

    def victims_of(self, evictor: str) -> list[tuple[str, int]]:
        """Objects whose misses *evictor* causes, with weights."""
        return [
            (victim, self._edges[(victim, evictor)])
            for victim in self._in[evictor]
        ]

    @property
    def total_conflict_misses(self) -> int:
        """Sum of all edge weights plus self-conflicts."""
        return (
            sum(self._edges.values())
            + sum(node.self_misses for node in self._nodes.values())
        )

    def subgraph(self, names: "Iterable[str]") -> "ConflictGraph":
        """Restriction of the graph to *names* (edges inside the set).

        Useful to focus the ILP on the hottest objects of very large
        programs.

        Node and edge insertion order of the result follow *this*
        graph's insertion (layout) order — never the iteration order
        of *names*, which may be an unordered set.  Two graphs built
        from bit-identical simulations therefore produce bit-identical
        subgraphs (same ``node_names``, same ``edges()`` order)
        whatever container the caller restricts by.
        """
        chosen = frozenset(names)
        unknown = chosen - set(self._nodes)
        if unknown:
            raise ConfigurationError(f"unknown objects: {sorted(unknown)}")
        result = ConflictGraph()
        for node in self._nodes.values():
            if node.name in chosen:
                result.add_node(ConflictNode(
                    name=node.name,
                    fetches=node.fetches,
                    size=node.size,
                    compulsory_misses=node.compulsory_misses,
                    self_misses=node.self_misses,
                ))
        for (victim, evictor), weight in self._edges.items():
            if victim in chosen and evictor in chosen:
                result.add_edge(victim, evictor, weight)
        return result

    def hottest(self, count: int) -> "ConflictGraph":
        """Subgraph of the *count* objects with the most fetches.

        Ties are broken by insertion order (the sort is stable), and
        the resulting subgraph keeps this graph's insertion order, so
        the selection is fully deterministic.
        """
        ranked = sorted(self._nodes.values(), key=lambda n: -n.fetches)
        return self.subgraph(node.name for node in ranked[:count])

    # ------------------------------------------------------------------
    # Energy prediction (the model behind eqs. 11/12)
    # ------------------------------------------------------------------

    def predicted_energy(
        self,
        spm_resident: set[str] | frozenset[str],
        model: EnergyModel,
        include_compulsory: bool = True,
        conflict_term: bool = True,
    ) -> float:
        """Evaluate the paper's energy model for an allocation.

        Implements eq. 11 summed over all objects (eq. 16):
        scratchpad-resident objects cost ``f_i * E_sp`` (eq. 6); cached
        objects cost ``f_i * E_hit`` plus ``(E_miss - E_hit)`` for every
        conflict miss whose victim *and* evictor remain cached.

        Args:
            spm_resident: objects placed on the scratchpad.
            model: per-event energies.
            include_compulsory: charge first-touch misses of cached
                objects (the reproduction's refinement).
            conflict_term: charge self and conflict misses; off, the
                cache-blind objective of the CASA ablation.

        Returns:
            Predicted total energy in nJ.
        """
        unknown = set(spm_resident) - set(self._nodes)
        if unknown:
            raise ConfigurationError(f"unknown objects: {sorted(unknown)}")
        miss_premium = model.cache_miss - model.cache_hit
        total = 0.0
        for node in self._nodes.values():
            if node.name in spm_resident:
                total += node.fetches * model.spm_access
                continue
            total += node.fetches * model.cache_hit
            extra_misses = node.self_misses if conflict_term else 0
            if include_compulsory:
                extra_misses += node.compulsory_misses
            if conflict_term:
                for evictor, weight in self.conflicts_of(node.name):
                    if evictor not in spm_resident:
                        extra_misses += weight
            total += extra_misses * miss_premium
        return total

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dot(self) -> str:
        """Export to Graphviz DOT (figure 2 style)."""
        lines = ["digraph conflict_graph {"]
        for node in self._nodes.values():
            lines.append(
                f'  "{node.name}" [label="{node.name}\\nf={node.fetches}"];'
            )
        for (victim, evictor), weight in self._edges.items():
            lines.append(
                f'  "{victim}" -> "{evictor}" [label="{weight}"];'
            )
        lines.append("}")
        return "\n".join(lines)
