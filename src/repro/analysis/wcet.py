"""WCET bounds via implicit path enumeration (IPET).

The paper's introduction motivates scratchpads over caches partly by
predictability: "[scratchpads] allow tighter bounds on WCET prediction
of the system".  This module makes that claim measurable: it computes a
worst-case execution time bound for the *instruction-fetch* component
of a linked program using the classic IPET formulation (Li & Malik) on
the package's own LP machinery:

* one flow variable per CFG edge, flow conservation per block;
* loop-bound constraints from the branch behaviours (a ``FixedTrip(n)``
  back edge executes ``n - 1`` times per loop entry; probabilistic
  loops take a configurable bound);
* the objective maximises total fetch cycles, where scratchpad-resident
  code costs its deterministic access latency and cacheable code is
  bounded conservatively (every line touched is assumed to miss).

Functions are analysed bottom-up over the acyclic call graph; a call
block's weight includes its callee's WCET bound.  The LP relaxation's
optimum is itself a safe upper bound (it dominates the integer
optimum), so no branching is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, SolverError
from repro.ilp import LinExpr, Model, Sense, SolveStatus
from repro.program.basicblock import BasicBlock
from repro.program.behavior import FixedTrip
from repro.program.cfg import ControlFlowGraph
from repro.program.function import Function
from repro.program.program import Program
from repro.traces.layout import BlockFetchPlan, LinkedImage


@dataclass(frozen=True)
class FetchLatency:
    """Worst-case fetch latencies in cycles per word.

    Attributes:
        spm: scratchpad access (deterministic).
        cache_hit: cache hit.
        cache_miss: cache miss including the line fill.
    """

    spm: int = 1
    cache_hit: int = 1
    cache_miss: int = 20

    def __post_init__(self) -> None:
        if min(self.spm, self.cache_hit, self.cache_miss) < 1:
            raise ConfigurationError("latencies must be >= 1 cycle")


@dataclass
class WcetReport:
    """WCET bounds per function plus the program bound.

    Attributes:
        program_wcet: fetch-cycle bound of the entry function (and thus
            the program).
        function_wcet: per-function bounds.
    """

    program_wcet: float
    function_wcet: dict[str, float]


def block_worst_case_cycles(
    plan: BlockFetchPlan,
    latency: FetchLatency,
    line_size: int,
) -> float:
    """Worst-case fetch cycles of one basic block execution.

    Scratchpad segments are deterministic; cacheable segments are
    bounded by assuming one miss per touched line and hits for the
    remaining words.  Conditional tail jumps are included (worst case).
    """
    cycles = 0.0
    segments = list(plan.segments)
    if plan.tail_jump is not None:
        segments.append(plan.tail_jump)
    for segment in segments:
        if segment.on_spm:
            cycles += segment.num_words * latency.spm
            continue
        first_line = segment.address // line_size
        last_line = (segment.end_address - 1) // line_size
        lines = last_line - first_line + 1
        cycles += lines * latency.cache_miss
        cycles += (segment.num_words - lines) * latency.cache_hit
    return cycles


def _function_wcet(
    function: Function,
    image: LinkedImage,
    latency: FetchLatency,
    line_size: int,
    callee_wcet: dict[str, float],
    default_loop_bound: int,
    loop_bounds: dict[str, int] | None = None,
) -> float:
    """IPET bound for one function (callees already bounded)."""
    cfg = ControlFlowGraph(function)
    model = Model(f"wcet[{function.name}]", Sense.MAXIMIZE)

    # Edge flow variables; virtual source -> entry and return -> sink.
    edge_vars: dict[tuple[str, str], object] = {}
    for block in function.blocks:
        for successor in block.successors():
            edge_vars[(block.name, successor)] = model.add_variable(
                f"e[{block.name}->{successor}]"
            )

    if not edge_vars:
        # Single-block function: executes its entry exactly once.
        entry = function.entry
        weight = block_worst_case_cycles(
            image.plan_for(entry.name), latency, line_size
        )
        if entry.ends_with_call:
            weight += callee_wcet[entry.call_target]
        return weight

    def inflow(name: str) -> LinExpr:
        expr = LinExpr()
        for (src, dst), var in edge_vars.items():
            if dst == name:
                expr = expr + var
        if name == function.entry.name:
            expr = expr + 1.0  # virtual entry edge
        return expr

    def outflow(block: BasicBlock) -> LinExpr:
        expr = LinExpr()
        for successor in block.successors():
            expr = expr + edge_vars[(block.name, successor)]
        if block.ends_with_return:
            expr = expr + 0.0  # flows to the virtual sink unbounded
        return expr

    execution_counts: dict[str, LinExpr] = {}
    objective = LinExpr()
    for block in function.blocks:
        count = inflow(block.name)
        execution_counts[block.name] = count
        if not block.ends_with_return:
            model.add_constraint(
                count - outflow(block) == 0, f"flow[{block.name}]"
            )
        weight = block_worst_case_cycles(
            image.plan_for(block.name), latency, line_size
        )
        if block.ends_with_call:
            weight += callee_wcet[block.call_target]
        objective = objective + weight * count

    # Loop bounds: back-edge flow <= (bound - 1) * header entries from
    # outside the loop.
    for loop in cfg.natural_loops():
        if loop_bounds and loop.header in loop_bounds:
            bound = loop_bounds[loop.header]
            if bound < 1:
                raise ConfigurationError(
                    f"loop bound for {loop.header!r} must be >= 1"
                )
        else:
            bound = _loop_bound(function, loop.back_edges,
                                default_loop_bound)
        back_flow = LinExpr.total(
            edge_vars[edge] for edge in loop.back_edges
        )
        entry_flow = LinExpr()
        for (src, dst), var in edge_vars.items():
            if dst == loop.header and src not in loop.body:
                entry_flow = entry_flow + var
        if loop.header == function.entry.name:
            entry_flow = entry_flow + 1.0
        model.add_constraint(
            back_flow - (bound - 1) * entry_flow <= 0,
            f"loopbound[{loop.header}]",
        )

    model.set_objective(objective)
    solution = model.solve()
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolverError(
            f"WCET LP for {function.name!r} is "
            f"{solution.status.value} - missing loop bound?"
        )
    assert solution.objective is not None
    return solution.objective


def _loop_bound(function: Function,
                back_edges: frozenset[tuple[str, str]],
                default_bound: int) -> int:
    """Iteration bound of a loop from its latch behaviours.

    When several *distinct* latches share one header, natural-loop
    detection has merged loops (e.g. a nested loop whose inner and
    outer headers coincide); the conservative combined bound is the
    product of the per-latch bounds (exact for the collapsed-nesting
    case: ``a*(b-1) + (a-1) <= a*b - 1``).
    """
    bounds = []
    for latch, _ in back_edges:
        block = function.block(latch)
        if isinstance(block.behavior, FixedTrip):
            bounds.append(block.behavior.trip_count)
        else:
            bounds.append(default_bound)
    if len(bounds) == 1:
        return bounds[0]
    product = 1
    for bound in bounds:
        product *= bound
    return product


def compute_wcet(
    program: Program,
    image: LinkedImage,
    latency: FetchLatency | None = None,
    line_size: int = 16,
    default_loop_bound: int = 64,
    loop_bounds: dict[str, int] | None = None,
) -> WcetReport:
    """WCET bound of *program* under the layout of *image*.

    Functions are processed in reverse call-graph order (the builder
    guarantees an acyclic call graph; recursion is rejected).

    Args:
        program: the program to bound.
        image: linked layout (scratchpad residents fetch
            deterministically).
        latency: per-word fetch latencies.
        line_size: cache-line size for the all-miss bound.
        default_loop_bound: bound used for loops without a fixed trip
            count (probabilistic latches).
        loop_bounds: flow facts — per loop-header block name, an
            explicit iteration bound overriding the derived one.

    Raises:
        ConfigurationError: if the call graph is cyclic or a flow fact
            is invalid.
    """
    latency = latency or FetchLatency()

    # Topological order of the call graph.
    callees: dict[str, set[str]] = {
        f.name: set() for f in program.functions
    }
    for function in program.functions:
        for block in function.blocks:
            if block.ends_with_call:
                callees[function.name].add(block.call_target)
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(name: str) -> None:
        if state.get(name) == 1:
            raise ConfigurationError(
                f"recursive call involving {name!r}: WCET needs an "
                "acyclic call graph"
            )
        if state.get(name) == 2:
            return
        state[name] = 1
        for callee in sorted(callees[name]):
            visit(callee)
        state[name] = 2
        order.append(name)

    for function in program.functions:
        visit(function.name)

    function_wcet: dict[str, float] = {}
    for name in order:
        function_wcet[name] = _function_wcet(
            program.function(name), image, latency, line_size,
            function_wcet, default_loop_bound, loop_bounds,
        )
    return WcetReport(
        program_wcet=function_wcet[program.entry],
        function_wcet=function_wcet,
    )
