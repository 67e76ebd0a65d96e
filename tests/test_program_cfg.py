"""Tests for repro.program.cfg (dominators, natural loops)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.isa import make_alu, make_branch, make_jump, make_return
from repro.program.basicblock import BasicBlock
from repro.program.behavior import FixedTrip, TakenProbability
from repro.program.cfg import ControlFlowGraph, program_loops
from repro.program.function import Function
from repro.program.program import Program
from repro.workloads import available_workloads, get_workload

from tests.conftest import make_loop_program


def nested_loop_function():
    """outer loop contains an inner loop."""
    blocks = [
        BasicBlock("f.entry", [make_alu()], fallthrough="f.outer"),
        BasicBlock("f.outer", [make_alu()], fallthrough="f.inner"),
        BasicBlock(
            "f.inner",
            [make_alu(), make_branch("f.inner")],
            fallthrough="f.latch",
            behavior=FixedTrip(3),
        ),
        BasicBlock(
            "f.latch",
            [make_branch("f.outer")],
            fallthrough="f.exit",
            behavior=FixedTrip(3),
        ),
        BasicBlock("f.exit", [make_return()]),
    ]
    return Function("f", blocks)


class TestDominators:
    def test_entry_dominates_everything(self):
        cfg = ControlFlowGraph(nested_loop_function())
        for node in cfg.reachable_blocks():
            assert cfg.dominates("f.entry", node)

    def test_entry_self_mapping(self):
        cfg = ControlFlowGraph(nested_loop_function())
        assert cfg.immediate_dominators()["f.entry"] == "f.entry"

    def test_non_dominator(self):
        cfg = ControlFlowGraph(nested_loop_function())
        assert not cfg.dominates("f.inner", "f.outer")

    def test_unreachable_block_raises(self):
        blocks = [
            BasicBlock("g.b0", [make_return()]),
            BasicBlock("g.dead", [make_return()]),
        ]
        cfg = ControlFlowGraph(Function("g", blocks))
        with pytest.raises(ConfigurationError):
            cfg.dominates("g.b0", "g.dead")


class TestNaturalLoops:
    def test_nested_loops_found(self):
        cfg = ControlFlowGraph(nested_loop_function())
        loops = cfg.natural_loops()
        headers = {loop.header for loop in loops}
        assert headers == {"f.outer", "f.inner"}

    def test_inner_nested_in_outer(self):
        cfg = ControlFlowGraph(nested_loop_function())
        by_header = {loop.header: loop for loop in cfg.natural_loops()}
        inner, outer = by_header["f.inner"], by_header["f.outer"]
        assert inner.is_nested_in(outer)
        assert not outer.is_nested_in(inner)

    def test_loop_bodies(self):
        cfg = ControlFlowGraph(nested_loop_function())
        by_header = {loop.header: loop for loop in cfg.natural_loops()}
        assert by_header["f.inner"].body == frozenset({"f.inner"})
        assert by_header["f.outer"].body == frozenset(
            {"f.outer", "f.inner", "f.latch"}
        )

    def test_self_loop(self):
        program = make_loop_program(trip=2)
        cfg = ControlFlowGraph(program.function("main"))
        loops = cfg.natural_loops()
        assert len(loops) == 1
        assert loops[0].body == frozenset({"main.loop"})
        assert loops[0].back_edges == frozenset(
            {("main.loop", "main.loop")}
        )

    def test_loop_free_function(self):
        blocks = [
            BasicBlock("h.b0", [make_alu()], fallthrough="h.b1"),
            BasicBlock("h.b1", [make_return()]),
        ]
        cfg = ControlFlowGraph(Function("h", blocks))
        assert cfg.natural_loops() == []

    def test_program_loops_aggregates(self):
        workload = get_workload("adpcm", scale=0.01)
        loops = program_loops(workload.program)
        assert loops, "adpcm has loops"
        functions = {loop.function for loop in loops}
        assert "main" in functions

    def test_loop_contains(self):
        program = make_loop_program(trip=2)
        loop = program_loops(program)[0]
        assert loop.contains("main.loop")
        assert not loop.contains("main.entry")
        assert loop.num_blocks == 1


class TestGraphQueries:
    def test_successors_predecessors(self):
        cfg = ControlFlowGraph(nested_loop_function())
        assert cfg.successors("f.latch") == ["f.exit", "f.outer"]
        assert cfg.predecessors("f.outer") == ["f.entry", "f.latch"]

    def test_reachable_blocks(self):
        cfg = ControlFlowGraph(nested_loop_function())
        assert cfg.reachable_blocks() == {
            "f.entry", "f.outer", "f.inner", "f.latch", "f.exit",
        }


# ----------------------------------------------------------------------
# Differential check against brute-force dataflow
# ----------------------------------------------------------------------


def _edges(function):
    """Distinct ``(src, dst)`` edges, straight from the blocks."""
    return {(block.name, succ)
            for block in function.blocks for succ in block.successors()}


def _reachable(function):
    edges = _edges(function)
    seen = {function.entry.name}
    frontier = [function.entry.name]
    while frontier:
        node = frontier.pop()
        for src, dst in edges:
            if src == node and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def _dominator_sets(function):
    """``Dom(n) = {n} | intersection of Dom(p)`` over reachable
    predecessors, iterated to the fixpoint from "all nodes"."""
    reachable = _reachable(function)
    edges = _edges(function)
    entry = function.entry.name
    preds = {n: {s for s, d in edges if d == n and s in reachable}
             for n in reachable}
    dom = {n: set(reachable) for n in reachable}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in reachable - {entry}:
            new = {node} | set.intersection(*(dom[p] for p in preds[node]))
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def _brute_force_loops(function, dom):
    """``{header: (body, back_edges)}`` from the dominator sets."""
    edges = {(s, d) for s, d in _edges(function) if s in dom}
    back = [(s, d) for s, d in edges if d in dom[s]]
    loops = {}
    for header in {d for _, d in back}:
        latches = {s for s, d in back if d == header}
        body = {header} | latches
        frontier = list(latches - {header})
        while frontier:
            node = frontier.pop()
            for src, dst in edges:
                if dst == node and src not in body:
                    body.add(src)
                    frontier.append(src)
        loops[header] = (frozenset(body),
                         frozenset((s, header) for s in latches))
    return loops


def _is_irreducible(function, dom):
    """Whether a cycle survives deleting every back edge."""
    forward = {(s, d) for s, d in _edges(function)
               if s in dom and d not in dom[s]}
    indegree = {n: 0 for n in dom}
    for _, dst in forward:
        indegree[dst] += 1
    ready = [n for n, k in indegree.items() if k == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for src, dst in forward:
            if src == node:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    return removed < len(dom)


def _check_against_brute_force(function):
    cfg = ControlFlowGraph(function)
    dom = _dominator_sets(function)
    assert cfg.reachable_blocks() == set(dom)
    for a in dom:
        for b in dom:
            assert cfg.dominates(a, b) == (a in dom[b]), (a, b)
    idom = cfg.immediate_dominators()
    assert set(idom) == set(dom)
    for node, strict in ((n, dom[n] - {n}) for n in dom):
        # The immediate dominator is the strict dominator closest to
        # *node*, i.e. the one with the most dominators of its own.
        expected = max(strict, key=lambda d: len(dom[d])) if strict \
            else node
        assert idom[node] == expected, node
    expected_loops = _brute_force_loops(function, dom)
    found = {loop.header: (loop.body, loop.back_edges)
             for loop in cfg.natural_loops()}
    assert found == expected_loops
    for block in function.blocks:
        succs = sorted(set(block.successors()))
        preds = sorted({s for s, d in _edges(function) if d == block.name})
        assert cfg.successors(block.name) == succs
        assert cfg.predecessors(block.name) == preds
    return dom


def _block(name, rng, targets):
    """A random block: straight-line, branch, jump or return."""
    kind = rng.choice(("straight", "branch", "branch", "jump", "return"))
    if kind == "straight":
        return BasicBlock(name, [make_alu()], fallthrough=rng.choice(targets))
    if kind == "branch":
        target = rng.choice(targets)
        # Bias towards target == fall-through (one deduplicated edge).
        fallthrough = target if rng.random() < 0.2 else rng.choice(targets)
        return BasicBlock(name, [make_alu(), make_branch(target)],
                          fallthrough=fallthrough,
                          behavior=TakenProbability(0.5))
    if kind == "jump":
        return BasicBlock(name, [make_jump(rng.choice(targets))])
    return BasicBlock(name, [make_return()])


def random_function(seed):
    rng = random.Random(seed)
    names = [f"r{seed}.b{i}" for i in range(rng.randint(1, 12))]
    return Function(f"r{seed}", [_block(name, rng, names) for name in names])


def _function(name, edges):
    """A function whose block *i* has the successors ``edges[i]``
    (block indices; two successors make a branch, ``[i, i]`` a branch
    whose target is its fall-through)."""
    names = [f"{name}.b{i}" for i in range(len(edges))]
    blocks = []
    for label, succs in zip(names, edges):
        if not succs:
            blocks.append(BasicBlock(label, [make_return()]))
        elif len(succs) == 1:
            blocks.append(BasicBlock(label, [make_jump(names[succs[0]])]))
        else:
            blocks.append(BasicBlock(
                label, [make_branch(names[succs[0]])],
                fallthrough=names[succs[1]], behavior=FixedTrip(2)))
    return Function(name, blocks)


#: Shapes the random CFGs are also checked to cover.
SHAPES = {
    # b1 and b2 form a cycle entered at both: no header dominates it.
    "irreducible": _function("irr", [[1, 2], [2], [1, 3], []]),
    # b1 is the header of three back edges (b1->b1, b2->b1, b3->b1).
    "shared_header": _function("multi", [[1], [1, 2], [1, 3], [1, 4], []]),
    # Unreachable b3 branches into the loop; it is no predecessor that
    # counts for dominators or loop bodies.
    "unreachable": _function("dead", [[1], [1, 2], [], [1, 2]]),
    "self_loop": _function("self", [[1], [1, 2], []]),
    "target_is_fallthrough": _function("same", [[1, 1], [0, 2], []]),
    "single_block": _function("one", [[]]),
    "entry_is_header": _function("head", [[0, 1], [0, 2], []]),
}


class TestDominatorsDifferential:
    """Dominators, idoms and natural loops agree with brute force."""

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shape(self, name):
        _check_against_brute_force(SHAPES[name])

    def test_shapes_have_their_feature(self):
        dom = _dominator_sets(SHAPES["irreducible"])
        assert _is_irreducible(SHAPES["irreducible"], dom)
        cfg = ControlFlowGraph(SHAPES["shared_header"])
        (loop,) = cfg.natural_loops()
        assert len(loop.back_edges) == 3
        same = ControlFlowGraph(SHAPES["target_is_fallthrough"])
        assert same.successors("same.b0") == ["same.b1"]
        assert same.predecessors("same.b1") == ["same.b0"]

    @pytest.mark.parametrize("workload", available_workloads())
    def test_every_workload_function(self, workload):
        program = get_workload(workload, scale=0.05).program
        for function in program.functions:
            _check_against_brute_force(function)

    def test_random_cfgs(self):
        seen = dict.fromkeys(
            ("unreachable", "self_loop", "target_is_fallthrough",
             "shared_header", "irreducible"), 0)
        for seed in range(200):
            function = random_function(seed)
            dom = _check_against_brute_force(function)
            blocks = function.blocks
            seen["unreachable"] += len(dom) < len(blocks)
            seen["self_loop"] += any(
                b.name in b.successors() for b in blocks if b.name in dom)
            seen["target_is_fallthrough"] += any(
                b.branch_target == b.fallthrough for b in blocks
                if b.ends_with_branch)
            back = [(s, d) for s, d in _edges(function)
                    if s in dom and d in dom[s]]
            headers = [d for _, d in back]
            seen["shared_header"] += len(headers) > len(set(headers))
            seen["irreducible"] += _is_irreducible(function, dom)
        assert all(count >= 5 for count in seen.values()), seen


#: ``(function, header, len(body))`` of every natural loop, captured
#: with networkx's dominators before the in-tree pass replaced them.
PROGRAM_LOOPS = {
    "adpcm": [
        ("adpcm_init", "adpcm_init.b1", 1), ("main", "main.b1", 3),
        ("pack_output", "pack_output.b1", 1),
        ("quantize_sample", "quantize_sample.b1", 1),
        ("unpack_input", "unpack_input.b1", 1),
    ],
    "g721": [
        ("adaptive_predictor_reset", "adaptive_predictor_reset.b1", 1),
        ("g721_flush", "g721_flush.b1", 1),
        ("g721_init", "g721_init.b1", 1),
        ("io_pack_unpack", "io_pack_unpack.b1", 1),
        ("law_conversion", "law_conversion.b1", 1),
        ("main", "main.b1", 3),
        ("predictor_pole", "predictor_pole.b1", 2),
        ("predictor_zero", "predictor_zero.b1", 2),
        ("quan", "quan.b1", 1), ("tone_detector", "tone_detector.b1", 1),
        ("transition_detect", "transition_detect.b1", 1),
        ("update", "update.b1", 1), ("update", "update.b5", 1),
    ],
    "mpeg": [
        ("add_prediction", "add_prediction.b1", 1),
        ("alloc_buffers", "alloc_buffers.b1", 1),
        ("aspect_ratio_tables", "aspect_ratio_tables.b1", 1),
        ("bitstream_align", "bitstream_align.b1", 1),
        ("conformance_checks", "conformance_checks.b1", 1),
        ("error_concealment", "error_concealment.b1", 1),
        ("fdct_block", "fdct_block.b1", 2),
        ("field_frame_decide", "field_frame_decide.b1", 1),
        ("gop_header", "gop_header.b1", 1),
        ("idct_block", "idct_block.b1", 2),
        ("init_idct_tables", "init_idct_tables.b1", 1),
        ("init_quant_tables", "init_quant_tables.b1", 1),
        ("init_vlc_tables", "init_vlc_tables.b1", 1),
        ("iquantize_block", "iquantize_block.b1", 1),
        ("macroblock_header", "macroblock_header.b1", 1),
        ("main", "main.b2", 13),
        ("motion_estimation", "motion_estimation.b1", 5),
        ("motion_vector_bounds", "motion_vector_bounds.b1", 1),
        ("mpeg_init", "mpeg_init.b1", 1),
        ("option_parsing", "option_parsing.b1", 1),
        ("picture_header", "picture_header.b1", 1),
        ("predict_block", "predict_block.b1", 1),
        ("putbits_flush", "putbits_flush.b1", 1),
        ("quantize_block", "quantize_block.b1", 4),
        ("read_parameters", "read_parameters.b1", 1),
        ("sad_16x16", "sad_16x16.b1", 1),
        ("sequence_header", "sequence_header.b1", 1),
        ("slice_header", "slice_header.b1", 1),
        ("statistics_report", "statistics_report.b1", 1),
        ("vlc_encode_block", "vlc_encode_block.b1", 4),
        ("write_trailer", "write_trailer.b1", 1),
    ],
    "jpeg": [
        ("downsample_tables", "downsample_tables.b1", 1),
        ("forward_dct", "forward_dct.b1", 1),
        ("huffman_encode", "huffman_encode.b1", 4),
        ("jpeg_init", "jpeg_init.b1", 1),
        ("main", "main.b1", 2), ("main", "main.b4", 3),
        ("main", "main.b8", 2),
        ("marker_tables", "marker_tables.b1", 1),
        ("quantize", "quantize.b1", 4),
        ("rgb_to_ycc", "rgb_to_ycc.b1", 1),
        ("write_jfif", "write_jfif.b1", 1),
    ],
    "epic": [
        ("bit_io", "bit_io.b1", 1),
        ("build_pyramid_tables", "build_pyramid_tables.b1", 1),
        ("epic_init", "epic_init.b1", 1),
        ("error_paths_epic", "error_paths_epic.b1", 1),
        ("fileio_epic", "fileio_epic.b1", 1),
        ("filter_horizontal", "filter_horizontal.b1", 1),
        ("filter_vertical", "filter_vertical.b1", 1),
        ("main", "main.b10", 3), ("main", "main.b14", 3),
        ("main", "main.b18", 3), ("main", "main.b2", 3),
        ("main", "main.b6", 3),
        ("parse_args_epic", "parse_args_epic.b1", 1),
        ("quantize_band", "quantize_band.b1", 4),
        ("reflect_boundaries", "reflect_boundaries.b1", 1),
        ("rle_encode", "rle_encode.b1", 4),
        ("unepic_support", "unepic_support.b1", 1),
        ("write_stream", "write_stream.b1", 1),
    ],
    "tiny": [("main", "main.b1", 3), ("main", "main.b2", 1)],
}


@pytest.mark.parametrize("workload", available_workloads())
def test_program_loops_pinned(workload):
    program = get_workload(workload, scale=0.05).program
    found = sorted((loop.function, loop.header, len(loop.body))
                   for loop in program_loops(program))
    assert found == PROGRAM_LOOPS[workload]
