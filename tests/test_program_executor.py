"""Tests for repro.program.executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa import (
    make_alu,
    make_branch,
    make_call,
    make_jump,
    make_return,
)
from repro.program.basicblock import BasicBlock
from repro.program.behavior import (
    BranchBehavior,
    FixedTrip,
    TakenProbability,
)
from repro.program.executor import (
    DEFAULT_MAX_STEPS,
    ExecutionResult,
    execute_program,
)
from repro.program.function import Function
from repro.program.profile import ProfileData
from repro.program.program import Program
from repro.utils.rng import DeterministicRng
from repro.workloads.registry import available_workloads, get_workload
from repro.workloads.synthetic import random_program

from tests.conftest import make_loop_program


class TestLoopExecution:
    def test_counted_loop_runs_exact_iterations(self):
        program = make_loop_program(trip=10)
        result = execute_program(program)
        assert result.profile.block_count("main.loop") == 10
        assert result.profile.block_count("main.entry") == 1
        assert result.profile.block_count("main.exit") == 1

    def test_block_sequence_shape(self):
        program = make_loop_program(trip=3)
        result = execute_program(program)
        assert result.block_sequence == (
            ["main.entry"] + ["main.loop"] * 3 + ["main.exit"]
        )

    def test_instruction_count(self):
        program = make_loop_program(trip=2, body_instructions=6)
        result = execute_program(program)
        # entry 4 + 2 * (6 + branch) + exit 3
        assert result.instruction_count == 4 + 2 * 7 + 3

    def test_edge_counts(self):
        program = make_loop_program(trip=5)
        result = execute_program(program)
        assert result.profile.edge_count("main.loop", "main.loop") == 4
        assert result.profile.edge_count("main.loop", "main.exit") == 1
        assert result.profile.edge_count("main.entry", "main.loop") == 1


class TestCalls:
    def make_call_program(self):
        main = Function("main", [
            BasicBlock(
                name="main.b0",
                instructions=[make_alu(), make_call("leaf")],
                fallthrough="main.b1",
            ),
            BasicBlock(
                name="main.b1",
                instructions=[make_alu(), make_return()],
            ),
        ])
        leaf = Function("leaf", [
            BasicBlock(name="leaf.b0",
                       instructions=[make_alu(), make_return()]),
        ])
        return Program([main, leaf], entry="main")

    def test_call_and_return_sequence(self):
        result = execute_program(self.make_call_program())
        assert result.block_sequence == ["main.b0", "leaf.b0", "main.b1"]

    def test_call_counts(self):
        result = execute_program(self.make_call_program())
        assert result.profile.call_counts[("main.b0", "leaf")] == 1

    def test_nested_calls(self):
        a = Function("a", [
            BasicBlock("a.b0", [make_call("b")], fallthrough="a.b1"),
            BasicBlock("a.b1", [make_return()]),
        ])
        b = Function("b", [
            BasicBlock("b.b0", [make_call("c")], fallthrough="b.b1"),
            BasicBlock("b.b1", [make_return()]),
        ])
        c = Function("c", [BasicBlock("c.b0", [make_return()])])
        program = Program([a, b, c], entry="a")
        result = execute_program(program)
        assert result.block_sequence == [
            "a.b0", "b.b0", "c.b0", "b.b1", "a.b1",
        ]


class TestDeterminism:
    def make_probabilistic(self):
        blocks = [
            BasicBlock(
                name="m.b0",
                instructions=[make_branch("m.b2")],
                fallthrough="m.b1",
                behavior=TakenProbability(0.5),
            ),
            BasicBlock(
                name="m.b1",
                instructions=[make_alu(), make_return()],
            ),
            BasicBlock(
                name="m.b2",
                instructions=[make_return()],
            ),
        ]
        return Program([Function("m", blocks)], entry="m")

    def test_same_seed_same_trace(self):
        program = self.make_probabilistic()
        first = execute_program(program, seed=7).block_sequence
        second = execute_program(program, seed=7).block_sequence
        assert first == second

    def test_rerun_on_same_program_object_is_stable(self):
        # FixedTrip counters must not leak between runs.
        program = make_loop_program(trip=4)
        first = execute_program(program).block_sequence
        second = execute_program(program).block_sequence
        assert first == second


class TestLimits:
    def test_runaway_loop_detected(self):
        blocks = [
            BasicBlock(
                name="m.b0",
                instructions=[make_branch("m.b0")],
                fallthrough="m.b1",
                behavior=TakenProbability(1.0),
            ),
            BasicBlock(name="m.b1", instructions=[make_return()]),
        ]
        program = Program([Function("m", blocks)], entry="m")
        with pytest.raises(SimulationError):
            execute_program(program, max_steps=1000)


# ----------------------------------------------------------------------
# Successor-table walk vs. the per-step walk it replaced
# ----------------------------------------------------------------------


def oracle_execute(program, seed=0, max_steps=DEFAULT_MAX_STEPS):
    """The executor before the successor table: it re-reads every
    block's terminator facts on every executed block and counts the
    profile as it goes."""
    rng_root = DeterministicRng(seed)
    behaviors = {
        block.name: block.behavior.clone()
        for block in program.all_blocks()
        if block.behavior is not None
    }
    block_rngs = {}
    sequence = []
    profile = ProfileData()
    instruction_count = 0
    call_stack = []
    current = program.entry_block.name
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise SimulationError(f"execution exceeded {max_steps} blocks")
        block = program.block(current)
        sequence.append(current)
        profile.block_counts[current] += 1
        instruction_count += block.num_instructions
        if block.ends_with_return:
            if not call_stack:
                break
            nxt = call_stack.pop()
        elif block.ends_with_call:
            callee = block.call_target
            assert callee is not None and block.fallthrough is not None
            profile.call_counts[(current, callee)] += 1
            call_stack.append(block.fallthrough)
            nxt = program.function(callee).entry.name
        elif block.ends_with_jump:
            nxt = block.branch_target
            assert nxt is not None
            profile.edge_counts[(current, nxt)] += 1
        elif block.ends_with_branch:
            behavior = behaviors[current]
            rng = block_rngs.get(current)
            if rng is None:
                rng = rng_root.fork(len(block_rngs))
                block_rngs[current] = rng
            if behavior.next_outcome(rng):
                nxt = block.branch_target
            else:
                nxt = block.fallthrough
            assert nxt is not None
            profile.edge_counts[(current, nxt)] += 1
        else:
            nxt = block.fallthrough
            assert nxt is not None
            profile.edge_counts[(current, nxt)] += 1
        current = nxt
    return ExecutionResult(sequence, profile, instruction_count)


def assert_same_execution(result, expected):
    assert result.block_sequence == expected.block_sequence
    assert result.instruction_count == expected.instruction_count
    for counter in ("block_counts", "edge_counts", "call_counts"):
        got = getattr(result.profile, counter)
        want = getattr(expected.profile, counter)
        # Item lists, so the insertion order is compared too.
        assert list(got.items()) == list(want.items()), counter


class TestOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", available_workloads())
    def test_registered_workloads(self, name, seed):
        program = get_workload(name).program
        assert_same_execution(execute_program(program, seed=seed),
                              oracle_execute(program, seed=seed))

    @given(st.integers(0, 200), st.integers(0, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_programs(self, program_seed, seed, deterministic):
        program = random_program(program_seed, num_functions=3,
                                 max_depth=2, deterministic=deterministic)
        assert_same_execution(
            execute_program(program, seed=seed, max_steps=2_000_000),
            oracle_execute(program, seed=seed, max_steps=2_000_000),
        )

    def test_max_steps_hit_at_the_same_step(self):
        program = get_workload("mpeg").program
        steps = len(oracle_execute(program).block_sequence)
        assert_same_execution(execute_program(program, max_steps=steps),
                              oracle_execute(program, max_steps=steps))
        for limit in (0, 1, steps // 2, steps - 1):
            with pytest.raises(SimulationError, match=f"{limit} blocks"):
                oracle_execute(program, max_steps=limit)
            with pytest.raises(SimulationError, match=f"{limit} blocks"):
                execute_program(program, max_steps=limit)

    def test_runaway_loop_stops_after_max_steps_outcomes(self):
        class Recorded(BranchBehavior):
            """Always taken; logs every decision (shared by clones)."""

            def __init__(self):
                self.log = []

            def next_outcome(self, rng):
                self.log.append(True)
                return True

            def reset(self):
                pass

        behavior = Recorded()
        program = Program([Function("m", [
            BasicBlock("m.b0", [make_alu()], fallthrough="m.b1"),
            BasicBlock("m.b1", [make_branch("m.b1")], fallthrough="m.b2",
                       behavior=behavior),
            BasicBlock("m.b2", [make_return()]),
        ])], entry="m")
        counts = []
        for run in (oracle_execute, execute_program):
            behavior.log.clear()
            with pytest.raises(SimulationError):
                run(program, max_steps=100)
            counts.append(len(behavior.log))
        assert counts == [99, 99]

    def test_ill_formed_unreached_block_raises_nothing(self):
        program = Program([Function("m", [
            BasicBlock("m.b0", [make_alu(), make_jump("m.b2")]),
            BasicBlock("m.dead", [make_alu(), make_call("m")],
                       fallthrough="m.b2"),
            BasicBlock("m.b2", [make_return()]),
        ])], entry="m")
        program.block("m.dead").fallthrough = None
        assert_same_execution(execute_program(program),
                              oracle_execute(program))


class TestIllFormedBlocks:
    """Structural faults of a reached block are errors, not asserts."""

    def program_with(self, block, *extra):
        return Program([Function("m", [
            BasicBlock("m.b0", [make_alu()], fallthrough="m.bad"),
            block,
            *extra,
            BasicBlock("m.end", [make_return()]),
        ]), Function("leaf", [BasicBlock("leaf.b0", [make_return()])])],
            entry="m")

    def test_call_without_continuation(self):
        program = self.program_with(
            BasicBlock("m.bad", [make_call("leaf")], fallthrough="m.end"))
        program.block("m.bad").fallthrough = None
        with pytest.raises(SimulationError, match="m.bad"):
            execute_program(program)

    def test_call_to_unknown_function(self):
        program = self.program_with(
            BasicBlock("m.bad", [make_call("leaf")], fallthrough="m.end"))
        program.block("m.bad").instructions[-1] = make_call("nowhere")
        with pytest.raises(SimulationError, match="m.bad"):
            execute_program(program)

    def test_fall_through_without_successor(self):
        program = self.program_with(
            BasicBlock("m.bad", [make_alu()], fallthrough="m.end"))
        program.block("m.bad").fallthrough = None
        with pytest.raises(SimulationError, match="m.bad"):
            execute_program(program)

    def test_branch_without_behaviour(self):
        program = self.program_with(
            BasicBlock("m.bad", [make_branch("m.end")],
                       fallthrough="m.end", behavior=FixedTrip(2)))
        program.block("m.bad").behavior = None
        with pytest.raises(SimulationError, match="m.bad"):
            execute_program(program)

    def test_successor_outside_the_program(self):
        program = self.program_with(
            BasicBlock("m.bad", [make_alu()], fallthrough="m.end"))
        program.block("m.bad").fallthrough = "m.gone"
        with pytest.raises(SimulationError, match="m.gone"):
            execute_program(program)


def test_terminators_read_once_per_block(monkeypatch):
    """Executing costs O(program) terminator reads, not O(steps)."""
    program = get_workload("mpeg").program
    reads = []
    original = BasicBlock.terminator

    def counted(block):
        reads.append(block.name)
        return original.fget(block)

    monkeypatch.setattr(BasicBlock, "terminator", property(counted))
    result = execute_program(program)
    assert result.num_block_executions > 10 * program.num_blocks
    assert len(reads) <= program.num_blocks
