"""Tests for repro.traces.layout (the linker)."""

import pytest

from repro.errors import AllocationError, LayoutError
from repro.program.executor import execute_program
from repro.traces.layout import (
    MAIN_BASE,
    SPM_BASE,
    LinkedImage,
    Placement,
)
from repro.traces.memory_object import MemoryObject
from repro.traces.tracegen import TraceGenConfig, generate_traces

from tests.conftest import make_loop_program


def linked(program, spm_resident=frozenset(), spm_size=0,
           placement=Placement.COPY, max_trace_size=64):
    result = execute_program(program)
    mos = generate_traces(
        program, result.profile,
        TraceGenConfig(line_size=16, max_trace_size=max_trace_size),
    )
    image = LinkedImage(
        program, mos,
        spm_resident=spm_resident,
        spm_size=spm_size,
        placement=placement,
    )
    return mos, image


class TestMainLayout:
    def test_objects_line_aligned_and_disjoint(self):
        program = make_loop_program()
        mos, image = linked(program)
        cursor = MAIN_BASE
        for mo in mos:
            assert image.base_address(mo.name) == cursor
            assert image.base_address(mo.name) % 16 == 0
            cursor += mo.padded_size
        assert image.main_image_size == cursor - MAIN_BASE

    def test_copy_keeps_main_addresses(self):
        program = make_loop_program()
        mos, baseline = linked(program)
        resident = {mos[0].name}
        _, image = linked(program, spm_resident=resident, spm_size=256,
                          placement=Placement.COPY)
        for mo in mos[1:]:
            assert image.base_address(mo.name) == \
                baseline.base_address(mo.name)

    def test_compact_shifts_following_objects(self):
        program = make_loop_program(trip=3, body_instructions=30)
        mos, baseline = linked(program, max_trace_size=32)
        assert len(mos) >= 3
        resident = {mos[0].name}
        _, image = linked(program, spm_resident=resident, spm_size=256,
                          placement=Placement.COMPACT,
                          max_trace_size=32)
        # every later object moves down by the removed padded size
        shift = mos[0].padded_size
        for mo in mos[1:]:
            assert image.base_address(mo.name) == \
                baseline.base_address(mo.name) - shift

    def test_spm_objects_in_spm_region(self):
        program = make_loop_program()
        mos, image = linked(program, spm_resident={mos_name(program)},
                            spm_size=256)
        name = mos_name(program)
        assert image.on_spm(name)
        assert image.base_address(name) == SPM_BASE


def mos_name(program):
    """Name of the first memory object of the default linking."""
    return "T0"


class TestCapacity:
    def test_overflow_rejected(self):
        program = make_loop_program()
        with pytest.raises(AllocationError):
            linked(program, spm_resident={"T0"}, spm_size=4)

    def test_unknown_resident_rejected(self):
        program = make_loop_program()
        with pytest.raises(AllocationError):
            linked(program, spm_resident={"T99"}, spm_size=1024)

    def test_spm_used_counts_unpadded(self):
        program = make_loop_program()
        mos, image = linked(program, spm_resident={"T0"}, spm_size=1024)
        mo = image.memory_object("T0")
        assert image.spm_used == mo.unpadded_size


class TestObjectSizes:
    """An image takes the object sizes a caller already summed."""

    def test_given_sizes_link_the_same_layout(self):
        program = make_loop_program()
        mos, image = linked(program, spm_resident={"T0"}, spm_size=1024)
        again = LinkedImage(program, mos, spm_resident={"T0"},
                            spm_size=1024,
                            object_sizes=image.object_sizes)
        assert again.object_sizes == image.object_sizes
        assert again.spm_used == image.spm_used
        for mo in mos:
            assert again.base_address(mo.name) == \
                image.base_address(mo.name)

    def test_wrong_count_of_sizes_rejected(self):
        program = make_loop_program()
        mos, image = linked(program)
        with pytest.raises(LayoutError, match="object sizes"):
            LinkedImage(program, mos,
                        object_sizes=image.object_sizes[:-1])

    def test_workbench_sums_each_object_once(self, adpcm_workbench,
                                             monkeypatch):
        # Every layout a workbench links reuses its baseline image's
        # sizes instead of summing each object's fragments again.
        allocation = adpcm_workbench.run_steinke(128).allocation
        calls = []
        real = MemoryObject.unpadded_size

        def counted(mo):
            calls.append(mo.name)
            return real.fget(mo)

        monkeypatch.setattr(MemoryObject, "unpadded_size",
                            property(counted))
        adpcm_workbench.evaluate_spm(allocation, 128)
        assert calls == []


class TestFetchPlans:
    def test_every_block_has_a_plan(self):
        program = make_loop_program()
        _, image = linked(program)
        for block in program.all_blocks():
            plan = image.plan_for(block.name)
            assert plan.always_fetched_words >= block.num_instructions

    def test_segments_word_counts(self):
        program = make_loop_program()
        _, image = linked(program)
        plan = image.plan_for("main.entry")
        # entry has 4 instructions, falls through inside the trace
        assert plan.always_fetched_words == 4
        assert plan.tail_jump is None

    def test_loop_block_tail(self):
        program = make_loop_program()
        _, image = linked(program)
        plan = image.plan_for("main.loop")
        # branch block mid-trace: no appended jump needed, fallthrough
        # target is adjacent
        assert plan.tail_jump is None

    def test_split_trace_has_conditional_tail(self):
        program = make_loop_program(trip=3)
        result = execute_program(program)
        mos = generate_traces(
            program, result.profile,
            TraceGenConfig(line_size=16, max_trace_size=1 << 20,
                           min_fallthrough_count=10**9),
        )
        image = LinkedImage(program, mos)
        plan = image.plan_for("main.entry")
        assert plan.tail_jump is not None
        assert plan.fallthrough == "main.loop"

    def test_plan_flags(self):
        program = make_loop_program()
        _, image = linked(program)
        assert image.plan_for("main.exit").ends_with_return
        assert not image.plan_for("main.entry").ends_with_call

    def test_all_plans_returns_copy(self):
        program = make_loop_program()
        _, image = linked(program)
        plans = image.all_plans()
        plans.clear()
        assert image.all_plans()
