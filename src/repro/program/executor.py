"""Deterministic CFG execution.

The executor replaces the paper's ARMulator run: it walks a program's
control-flow graph, resolving conditional branches through each block's
:class:`~repro.program.behavior.BranchBehavior`, and records the sequence
of executed basic blocks plus their profile.  It emits no addresses: the
memory kernel compiles the block sequence into the fetch stream of any
layout (:mod:`repro.memory.kernel.stream`), so one profiled execution
can be replayed against any memory hierarchy, exactly like a recorded
instruction trace.

The walk runs on a successor table: a block's terminator facts are
read once, on its first execution, into one tuple, and every later
execution of the block only dispatches on that tuple.  The profile
counters are derived from the block sequence after the walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count, islice, repeat

from repro.errors import SimulationError
from repro.isa import Opcode
from repro.program.profile import ProfileData
from repro.program.program import Program
from repro.utils.rng import DeterministicRng

#: Default upper bound on executed blocks, guarding against accidental
#: infinite loops in hand-written workloads.
DEFAULT_MAX_STEPS = 50_000_000

# Successor-table entry kinds.  An entry is the tuple
# ``(kind, successor, fallthrough, callee, num_instructions, outcome,
# rng)``: ``successor`` is the next block of a straight or jump block,
# the taken target of a branch and the callee's entry block of a call;
# ``fallthrough`` is a branch's not-taken successor and a call's
# continuation; ``outcome`` is the cloned behaviour's ``next_outcome``.
_NEXT, _BRANCH, _CALL, _RETURN = range(4)


@dataclass
class ExecutionResult:
    """Outcome of one program execution.

    Attributes:
        block_sequence: names of basic blocks in execution order.
        profile: aggregated block/edge/call frequencies.
        instruction_count: total original (non-padding) instructions
            executed.
    """

    block_sequence: list[str]
    profile: ProfileData
    instruction_count: int

    @property
    def num_block_executions(self) -> int:
        """Length of the block sequence."""
        return len(self.block_sequence)


def _table_entry(program: Program, name: str, fork_rng) -> tuple:
    """The successor-table entry of block *name* (see ``_NEXT``).

    Raises:
        SimulationError: if the block does not exist or cannot be
            executed: a call without a continuation or to an unknown
            function, a jump or branch without a target, a branch
            without a behaviour, or a fall-through block without a
            successor.
    """
    if not program.has_block(name):
        raise SimulationError(f"execution reached unknown block {name!r}")
    block = program.block(name)
    terminator = block.terminator
    opcode = terminator.opcode
    fallthrough = block.fallthrough
    size = block.num_instructions
    if opcode is Opcode.RETURN:
        return (_RETURN, None, None, None, size, None, None)
    if opcode is Opcode.CALL:
        callee = terminator.target
        try:
            function = program.function(callee)
        except KeyError:
            raise SimulationError(
                f"block {name!r} calls unknown function {callee!r}"
            ) from None
        if fallthrough is None:
            raise SimulationError(
                f"call block {name!r} has no continuation"
            )
        return (_CALL, function.entry.name, fallthrough, callee, size,
                None, None)
    if opcode is Opcode.JUMP:
        if terminator.target is None:
            raise SimulationError(f"jump block {name!r} has no target")
        return (_NEXT, terminator.target, None, None, size, None, None)
    if opcode is Opcode.BRANCH:
        if terminator.target is None or fallthrough is None:
            raise SimulationError(
                f"branch block {name!r} needs a target and a "
                "fall-through successor"
            )
        if block.behavior is None:
            raise SimulationError(
                f"branch block {name!r} has no branch behaviour"
            )
        return (_BRANCH, terminator.target, fallthrough, None, size,
                block.behavior.clone().next_outcome, fork_rng())
    if fallthrough is None:
        raise SimulationError(
            f"block {name!r} falls through but has no successor"
        )
    return (_NEXT, fallthrough, None, None, size, None, None)


def execute_program(
    program: Program,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionResult:
    """Execute *program* from its entry function until it returns.

    A block that is never executed is never inspected, so an ill-formed
    block that execution does not reach raises nothing.

    Args:
        program: the program to run (must pass :meth:`Program.validate`).
        seed: seed for probabilistic branch behaviours; fixed-trip
            behaviours are unaffected.
        max_steps: abort threshold on the number of executed blocks.

    Returns:
        The executed block sequence plus profile data.

    Raises:
        SimulationError: if execution exceeds *max_steps* (runaway
            loop) or reaches a block that does not exist or cannot be
            executed (see ``_table_entry``).
    """
    rng_root = DeterministicRng(seed)
    salts = count()

    def fork_rng() -> DeterministicRng:
        # One stream per branch block, salted by first-execution order.
        return rng_root.fork(next(salts))

    # Behaviours are cloned into the table, so repeated executions of
    # the same Program object start from fresh trip counters.
    table: dict[str, tuple] = {}
    sequence: list[str] = []
    append = sequence.append
    call_stack: list[str] = []
    push = call_stack.append
    pop = call_stack.pop

    current = program.entry_block.name
    for _ in repeat(None, max_steps):
        entry = table.get(current)
        if entry is None:
            entry = table[current] = _table_entry(program, current,
                                                  fork_rng)
        append(current)
        kind = entry[0]
        if kind == _NEXT:
            current = entry[1]
        elif kind == _BRANCH:
            current = entry[1] if entry[5](entry[6]) else entry[2]
        elif kind == _CALL:
            push(entry[2])
            current = entry[1]
        elif call_stack:
            current = pop()
        else:
            break  # entry function returned: program ends
    else:
        raise SimulationError(
            f"execution exceeded {max_steps} blocks - "
            "likely an unbounded loop in the workload"
        )

    # Counters inserted in first-execution (first-traversal) order,
    # exactly as incrementing them during the walk would.
    profile = ProfileData()
    profile.block_counts = block_counts = Counter(sequence)
    for (src, dst), times in Counter(
            zip(sequence, islice(sequence, 1, None))).items():
        if table[src][0] in (_NEXT, _BRANCH):
            profile.edge_counts[(src, dst)] = times
    instruction_count = 0
    for name, times in block_counts.items():
        entry = table[name]
        instruction_count += entry[4] * times
        if entry[0] == _CALL:
            profile.call_counts[(name, entry[3])] = times
    return ExecutionResult(
        block_sequence=sequence,
        profile=profile,
        instruction_count=instruction_count,
    )
