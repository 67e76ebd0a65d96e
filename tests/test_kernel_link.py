"""Compile once, link per layout: equal to compiling every layout.

The oracle below is the per-layout compiler the kernel used before a
compiled block sequence became layout-free: it walks one image's fetch
plans and emits absolute addresses.  Linking the one compiled sequence
of a workbench onto a layout must give exactly the stream the oracle
compiles for that layout, for every registered workload and resident
set the exhibits produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.casa import CasaAllocator
from repro.core.steinke import SteinkeAllocator
from repro.engine.runner import make_workbench
from repro.errors import LayoutError
from repro.memory.kernel import FetchStream, compile_stream
from repro.traces.layout import LinkedImage, Placement
from repro.workloads.registry import available_workloads, get_workload


def oracle_stream(image: LinkedImage, block_sequence: list[str],
                  spm_base: int) -> FetchStream:
    """The fetch stream of *image*, compiled from its own fetch plans."""
    mo_names = tuple(mo.name for mo in image.memory_objects)
    mo_index = {name: i for i, name in enumerate(mo_names)}

    compiled: dict[str, tuple] = {}
    for name, plan in image.all_plans().items():
        seg_fields = (
            [mo_index[s.mo_name] for s in plan.segments],
            [s.address for s in plan.segments],
            [s.num_words for s in plan.segments],
            [s.on_spm for s in plan.segments],
        )
        tail = plan.tail_jump
        tail_fields = None
        if tail is not None:
            tail_fields = (
                mo_index[tail.mo_name], tail.address,
                tail.num_words, tail.on_spm,
            )
        compiled[name] = (
            seg_fields, tail_fields, plan.fallthrough,
            plan.ends_with_call, plan.ends_with_return,
        )

    out_mo: list[int] = []
    out_addr: list[int] = []
    out_words: list[int] = []
    out_spm: list[bool] = []
    pending_tails: list[tuple | None] = []
    last_index = len(block_sequence) - 1

    for index, block_name in enumerate(block_sequence):
        (seg_mo, seg_addr, seg_words, seg_spm), tail, fallthrough, \
            is_call, is_return = compiled[block_name]
        out_mo.extend(seg_mo)
        out_addr.extend(seg_addr)
        out_words.extend(seg_words)
        out_spm.extend(seg_spm)
        if is_call:
            pending_tails.append(tail)
        elif tail is not None:
            if index < last_index and \
                    block_sequence[index + 1] == fallthrough:
                out_mo.append(tail[0])
                out_addr.append(tail[1])
                out_words.append(tail[2])
                out_spm.append(tail[3])
        if is_return and pending_tails:
            popped = pending_tails.pop()
            if popped is not None:
                out_mo.append(popped[0])
                out_addr.append(popped[1])
                out_words.append(popped[2])
                out_spm.append(popped[3])

    return FetchStream(
        mo_names=mo_names,
        seg_mo=np.asarray(out_mo, dtype=np.int32),
        seg_addr=np.asarray(out_addr, dtype=np.int64),
        seg_words=np.asarray(out_words, dtype=np.int64),
        seg_on_spm=np.asarray(out_spm, dtype=bool),
        num_blocks=len(block_sequence),
        spm_base=spm_base,
    )


def image_of(bench, resident, placement, spm_size=None):
    """*bench*'s layout with *resident* on the scratchpad."""
    if spm_size is None:
        spm_size = sum(mo.unpadded_size for mo in bench.memory_objects)
    return LinkedImage(
        bench.program, bench.memory_objects,
        spm_resident=resident, spm_size=spm_size, placement=placement,
        main_base=bench.config.main_base, spm_base=bench.config.spm_base,
    )


def resident_sets(name: str, bench) -> list[frozenset[str]]:
    """Empty, CASA's and Steinke's set at each Table 1 size; all
    objects for ``tiny``."""
    sets = [frozenset()]
    context = bench.allocation_context()
    for size in get_workload(name).spm_sizes:
        model = bench.spm_energy_model(size)
        for allocator in (CasaAllocator(), SteinkeAllocator()):
            allocation = allocator.allocate(bench.conflict_graph, size,
                                            model, context=context)
            sets.append(allocation.spm_resident)
    if name == "tiny":
        sets.append(frozenset(mo.name for mo in bench.memory_objects))
    return list(dict.fromkeys(sets))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", available_workloads())
def test_link_matches_per_layout_compile(name, seed):
    _, bench = make_workbench(name, seed=seed, backend="vector")
    spm_base = bench.config.spm_base
    baseline = image_of(bench, frozenset(), Placement.COPY, spm_size=0)
    sequence = compile_stream(baseline, bench.block_sequence,
                              spm_base=spm_base).sequence
    layouts = 0
    for resident in resident_sets(name, bench):
        for placement in Placement:
            image = image_of(bench, resident, placement)
            linked = sequence.link(image, spm_base)
            expected = oracle_stream(image, bench.block_sequence, spm_base)
            assert linked.same_as(expected), (resident, placement)
            assert linked.spm_words == expected.spm_words
            layouts += 1
    assert layouts >= 2


def test_compile_stream_is_compile_plus_link(tiny_workbench):
    bench = tiny_workbench
    resident = frozenset({bench.memory_objects[0].name})
    image = image_of(bench, resident, Placement.COMPACT)
    stream = compile_stream(image, bench.block_sequence,
                            spm_base=bench.config.spm_base)
    assert stream.same_as(oracle_stream(image, bench.block_sequence,
                                        bench.config.spm_base))
    assert stream.sequence.seg_mo is stream.seg_mo
    assert stream.sequence.seg_words is stream.seg_words


def test_linking_onto_other_memory_objects_raises(tiny_workbench):
    _, other = make_workbench("adpcm", scale=0.2)
    sequence = compile_stream(
        image_of(tiny_workbench, frozenset(), Placement.COPY),
        tiny_workbench.block_sequence,
    ).sequence
    with pytest.raises(LayoutError, match="other memory objects"):
        sequence.link(image_of(other, frozenset(), Placement.COPY))


def test_linking_onto_resized_objects_raises(tiny_workbench):
    bench = tiny_workbench
    sequence = compile_stream(
        image_of(bench, frozenset(), Placement.COPY), bench.block_sequence,
    ).sequence
    objects = bench.memory_objects
    # Same names, but one object loses its last fragment.
    index = next(i for i, mo in enumerate(objects)
                 if len(mo.fragments) > 1)
    mo = objects[index]
    shrunk = list(objects)
    shrunk[index] = type(mo)(name=mo.name, fragments=mo.fragments[:-1],
                             line_size=mo.line_size)
    image = LinkedImage(bench.program, shrunk)
    with pytest.raises(LayoutError, match="other memory objects"):
        sequence.link(image)


def test_compiled_arrays_are_read_only(tiny_workbench):
    sequence = compile_stream(
        image_of(tiny_workbench, frozenset(), Placement.COPY),
        tiny_workbench.block_sequence,
    ).sequence
    for array in (sequence.seg_mo, sequence.seg_offset,
                  sequence.seg_words):
        with pytest.raises(ValueError):
            array[:1] = 0
