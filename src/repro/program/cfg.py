"""Control-flow-graph analysis: dominators and natural loops.

The Ross/Vahid loop-cache allocator preloads *loops and functions*; this
module finds the natural loops of each function so the allocator has its
candidate regions.  Immediate dominators are computed with the iterative
Cooper/Harvey/Kennedy algorithm over reverse postorder ("A Simple, Fast
Dominance Algorithm", 2001).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.program.function import Function
from repro.program.program import Program


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop of a function's CFG.

    Attributes:
        function: name of the containing function.
        header: the loop header block (dominates every block in the body).
        body: names of all blocks in the loop, including the header.
        back_edges: the ``(latch, header)`` edges that define the loop.
    """

    function: str
    header: str
    body: frozenset[str]
    back_edges: frozenset[tuple[str, str]]

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the loop body."""
        return len(self.body)

    def contains(self, block_name: str) -> bool:
        """Whether *block_name* is part of the loop."""
        return block_name in self.body

    def is_nested_in(self, other: "NaturalLoop") -> bool:
        """Whether this loop's body lies entirely inside *other*'s body."""
        return self is not other and self.body <= other.body


class ControlFlowGraph:
    """Intra-procedural CFG of one function, with analyses.

    The graph contains one node per basic block and one edge per
    branch-taken / fall-through / post-call-continuation transfer.
    """

    def __init__(self, function: Function) -> None:
        self._function = function
        succs: dict[str, list[str]] = {b.name: [] for b in function.blocks}
        preds: dict[str, list[str]] = {b.name: [] for b in function.blocks}
        for block in function.blocks:
            for successor in block.successors():
                # One edge per (src, dst): a branch whose target is also
                # its fall-through is a single edge.
                if successor not in succs[block.name]:
                    succs[block.name].append(successor)
                    succs.setdefault(successor, [])
                    preds.setdefault(successor, []).append(block.name)
        self._succs = succs
        self._preds = preds
        self._entry = function.entry.name
        self._dominators: dict[str, str] | None = None

    @property
    def function(self) -> Function:
        """The function this CFG describes."""
        return self._function

    @property
    def entry(self) -> str:
        """Name of the entry block."""
        return self._entry

    def successors(self, block_name: str) -> list[str]:
        """Successor block names."""
        return sorted(self._succs[block_name])

    def predecessors(self, block_name: str) -> list[str]:
        """Predecessor block names."""
        return sorted(self._preds[block_name])

    def reachable_blocks(self) -> set[str]:
        """Blocks reachable from the entry."""
        return set(self._reverse_postorder())

    def _reverse_postorder(self) -> list[str]:
        """Reachable blocks in reverse postorder of an iterative DFS."""
        postorder: list[str] = []
        visited = {self._entry}
        stack = [(self._entry, iter(self._succs[self._entry]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child not in visited:
                    visited.add(child)
                    stack.append((child, iter(self._succs[child])))
                    break
            else:
                stack.pop()
                postorder.append(node)
        postorder.reverse()
        return postorder

    # ------------------------------------------------------------------
    # Dominators
    # ------------------------------------------------------------------

    def immediate_dominators(self) -> dict[str, str]:
        """Immediate-dominator map over reachable blocks (entry maps to
        itself)."""
        if self._dominators is None:
            order = self._reverse_postorder()
            rank = {node: i for i, node in enumerate(order)}
            idom = {self._entry: self._entry}

            def intersect(a: str, b: str) -> str:
                # Walk both fingers up the dominator tree until they
                # meet; a lower rank is closer to the entry.
                while a != b:
                    while rank[a] > rank[b]:
                        a = idom[a]
                    while rank[b] > rank[a]:
                        b = idom[b]
                return a

            changed = True
            while changed:
                changed = False
                for node in order[1:]:
                    new_idom = None
                    for pred in self._preds[node]:
                        if pred not in idom:
                            continue  # unreachable or not yet processed
                        new_idom = pred if new_idom is None \
                            else intersect(pred, new_idom)
                    if idom.get(node) != new_idom:
                        idom[node] = new_idom
                        changed = True
            self._dominators = idom
        return self._dominators

    def dominates(self, dominator: str, node: str) -> bool:
        """Whether *dominator* dominates *node* (reflexive)."""
        idom = self.immediate_dominators()
        if node not in idom:
            raise ConfigurationError(
                f"block {node!r} is unreachable in {self._function.name!r}"
            )
        current = node
        while True:
            if current == dominator:
                return True
            parent = idom[current]
            if parent == current:
                return False
            current = parent

    # ------------------------------------------------------------------
    # Natural loops
    # ------------------------------------------------------------------

    def natural_loops(self) -> list[NaturalLoop]:
        """Find all natural loops, merging loops that share a header.

        A back edge is an edge ``u -> h`` where ``h`` dominates ``u``.
        The loop body is ``h`` plus every block that can reach ``u``
        without passing through ``h``.
        """
        order = self._reverse_postorder()
        reachable = set(order)
        back_edges_by_header: dict[str, list[tuple[str, str]]] = {}
        for src in order:
            for dst in self._succs[src]:
                if self.dominates(dst, src):
                    back_edges_by_header.setdefault(dst, []).append(
                        (src, dst))

        loops: list[NaturalLoop] = []
        for header, back_edges in sorted(back_edges_by_header.items()):
            body: set[str] = {header}
            worklist: list[str] = []
            for latch, _ in back_edges:
                if latch not in body:
                    body.add(latch)
                    worklist.append(latch)
            while worklist:
                node = worklist.pop()
                for pred in self._preds[node]:
                    if pred in reachable and pred not in body:
                        body.add(pred)
                        worklist.append(pred)
            loops.append(
                NaturalLoop(
                    function=self._function.name,
                    header=header,
                    body=frozenset(body),
                    back_edges=frozenset(back_edges),
                )
            )
        return loops


def program_loops(program: Program) -> tuple[NaturalLoop, ...]:
    """All natural loops of every function in *program*, in link order.

    The result is memoised on the program instance: a program does not
    change once built, and the Ross allocator asks again on every
    allocation.
    """
    loops = getattr(program, "_natural_loops", None)
    if loops is None:
        loops = tuple(
            loop for function in program.functions
            for loop in ControlFlowGraph(function).natural_loops()
        )
        program._natural_loops = loops
    return loops
