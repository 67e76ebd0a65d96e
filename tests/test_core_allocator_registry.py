"""Tests for the Allocator protocol and make_allocator registry."""

import pytest

from repro.core import (
    ALLOCATOR_NAMES,
    Allocator,
    CasaAllocator,
    GreedyCasaAllocator,
    RossLoopCacheAllocator,
    SteinkeAllocator,
    make_allocator,
)
from repro.api import EVALUATE_METHODS, Session
from repro.core.allocation import AllocationContext
from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.energy.model import EnergyModel
from repro.errors import ConfigurationError

MODEL = EnergyModel(cache_hit=1.0, cache_miss=21.0, spm_access=0.5)


def toy_graph():
    graph = ConflictGraph()
    graph.add_node(ConflictNode("A", fetches=1000, size=32))
    graph.add_node(ConflictNode("B", fetches=500, size=32))
    graph.add_edge("A", "B", 100)
    graph.add_edge("B", "A", 80)
    return graph


class TestRegistry:
    def test_every_name_builds(self):
        for name in ALLOCATOR_NAMES:
            allocator = make_allocator(name)
            assert isinstance(allocator, Allocator)

    def test_expected_types(self):
        assert isinstance(make_allocator("casa"), CasaAllocator)
        assert isinstance(make_allocator("steinke"), SteinkeAllocator)
        assert isinstance(make_allocator("greedy"),
                          GreedyCasaAllocator)
        assert isinstance(make_allocator("ross"),
                          RossLoopCacheAllocator)

    def test_name_canonicalisation(self):
        assert isinstance(make_allocator("CASA"), CasaAllocator)
        assert isinstance(make_allocator(" greedy_casa "),
                          GreedyCasaAllocator)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="choose from"):
            make_allocator("magic")

    def test_bad_options_raise(self):
        with pytest.raises(ConfigurationError, match="bad options"):
            make_allocator("casa", warp_factor=9)

    def test_options_forwarded(self):
        allocator = make_allocator("casa", conflict_term=False)
        assert allocator.config.conflict_term is False


class TestProtocol:
    def test_protocol_is_runtime_checkable(self):
        assert isinstance(CasaAllocator(), Allocator)
        assert not isinstance(object(), Allocator)

    def test_unified_signature_spm(self):
        graph = toy_graph()
        for name in ("casa", "steinke", "greedy"):
            allocation = make_allocator(name).allocate(
                graph, 32, MODEL, context=None
            )
            assert allocation.capacity == 32

    def test_ross_requires_context(self):
        with pytest.raises(ConfigurationError,
                           match="AllocationContext"):
            make_allocator("ross").allocate(toy_graph(), 64)

    def test_capacity_overrides_ross_config(self, tiny_workbench):
        bench = tiny_workbench
        from repro.traces.layout import LinkedImage, Placement

        image = LinkedImage(
            bench.program, bench.memory_objects,
            spm_resident=frozenset(), spm_size=0,
            placement=Placement.COPY,
            main_base=bench.config.main_base,
            spm_base=bench.config.spm_base,
        )
        context = AllocationContext(
            program=bench.program,
            memory_objects=bench.memory_objects,
            image=image,
        )
        allocator = make_allocator("ross", size=256)
        allocation = allocator.allocate(
            bench.conflict_graph, 64, context=context
        )
        assert allocation.capacity == 64


#: Allocator names of extensions that no command reached and that were
#: deleted: simulated annealing and the multi-scratchpad ILP.
RETIRED = ("anneal", "annealing", "multi-spm", "casa-multi-spm")


class TestRetiredNames:
    """A retired method name fails like any unknown name: one
    ``ConfigurationError`` that lists only the names that remain."""

    @staticmethod
    def assert_lists_only(message, names):
        listed = message.split("choose from ", 1)[1].split(", ")
        assert listed == list(names)
        assert not set(listed) & set(RETIRED)

    @pytest.mark.parametrize("name", RETIRED)
    def test_make_allocator_rejects(self, name):
        with pytest.raises(ConfigurationError,
                           match="unknown allocator") as err:
            make_allocator(name)
        self.assert_lists_only(str(err.value), ALLOCATOR_NAMES)

    def test_session_evaluate_rejects(self):
        session = Session("tiny", scale=0.2)
        for name in ("anneal", "annealing"):
            with pytest.raises(ConfigurationError,
                               match="unknown evaluation method") as err:
                session.evaluate(name)
            self.assert_lists_only(str(err.value), EVALUATE_METHODS)
