"""The workload registry: cheap metadata, a lazily built program.

A :class:`~repro.workloads.registry.Workload` builds its program on
the first access to ``.program``.  These tests count builds through
the registry's builder table, so a caller that rebuilds a program it
only needed the metadata of (or a warm served request that rebuilds
one at all) fails here by name.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import pickle

import pytest

from repro.cli import main
from repro.serve.schema import SCHEMA_VERSION, request_from_json
from repro.serve.service import AllocationService, ServiceConfig
from repro.workloads import mediabench, registry
from repro.workloads.registry import available_workloads, get_workload

#: The request mix of the ``serve-mixed`` benchmark: (verb, algorithm).
SERVE_MIX = (
    ("simulate", None),
    ("conflict_graph", None),
    ("allocate", "casa"),
    ("allocate", "steinke"),
    ("evaluate", "casa"),
    ("evaluate", "steinke"),
    ("evaluate", "ross"),
    ("sweep", "casa"),
    ("sweep", "steinke"),
    ("sweep", "ross"),
)


@pytest.fixture
def builds(monkeypatch) -> list[tuple[str, float]]:
    """Record every program build as ``(workload, scale)``."""
    calls: list[tuple[str, float]] = []
    for name, build in list(registry._BUILDERS.items()):
        def counted(scale, name=name, build=build):
            calls.append((name, scale))
            return build(scale)
        monkeypatch.setitem(registry._BUILDERS, name, counted)
    return calls


def _shape(program) -> tuple:
    """Everything structural about a program, as a comparable value."""
    return (
        program.name, program.entry, program.size,
        [(function.name,
          [(block.name, block.fallthrough, repr(block.behavior),
            [repr(instruction) for instruction in block.instructions])
           for block in function.blocks])
         for function in program.functions],
    )


def _round_trip(workload):
    return pickle.loads(pickle.dumps(workload))


class TestBuildCount:
    @pytest.mark.parametrize("name", available_workloads())
    def test_metadata_builds_nothing(self, builds, name):
        workload = get_workload(name, scale=0.2)
        assert workload.spm_sizes and workload.cache.size > 0
        assert builds == []

    def test_warm_served_request_builds_nothing(self, builds):
        service = AllocationService(ServiceConfig())
        payloads = [
            {"schema_version": SCHEMA_VERSION, "kind": kind,
             "workload": "tiny", "scale": 0.2, "seed": 3,
             **({"algorithm": algorithm} if algorithm else {})}
            for kind, algorithm in SERVE_MIX
        ]

        async def ask(payload):
            return await service.handle(request_from_json(payload))

        service.start()
        try:
            for payload in payloads:
                assert asyncio.run(ask(payload)).status == "ok"
            cold = len(builds)
            for payload in payloads:
                before = len(builds)
                assert asyncio.run(ask(payload)).status == "ok"
                assert len(builds) == before, payload
        finally:
            service.stop()
        assert cold == 1

    def test_cli_sweep_builds_the_program_once(self, builds, capsys):
        code = main(["sweep", "--workload", "tiny", "--algorithms",
                     "steinke", "ross", "--scale", "0.2", "--no-cache"])
        capsys.readouterr()
        assert code == 0
        assert builds == [("tiny", 0.2)]


class TestLazyProgram:
    @pytest.mark.parametrize("scale", (1.0, 0.2))
    @pytest.mark.parametrize("name", available_workloads())
    def test_matches_a_direct_build(self, name, scale):
        build = registry._build_tiny if name == "tiny" \
            else getattr(mediabench, f"build_{name}")
        direct = build(scale)
        workload = get_workload(name, scale=scale)
        program = workload.program
        assert _shape(program) == _shape(direct)
        assert program.num_blocks == direct.num_blocks
        assert workload.program is program

    @pytest.mark.parametrize("scale", (1.0, 0.2))
    @pytest.mark.parametrize("name", available_workloads())
    def test_identity_does_not_depend_on_the_build(self, name, scale):
        fresh = get_workload(name, scale=scale)
        built = get_workload(name, scale=scale)
        built.program
        assert fresh == built
        assert hash(fresh) == hash(built)
        assert fresh != get_workload(name, scale=scale / 2)

    @pytest.mark.parametrize("scale", (1.0, 0.2))
    @pytest.mark.parametrize("name", available_workloads())
    def test_pickles_before_and_after_the_build(self, name, scale):
        workload = get_workload(name, scale=scale)
        unbuilt = _round_trip(workload)
        assert unbuilt == workload
        assert "program" not in vars(unbuilt)
        program = workload.program
        built = _round_trip(workload)
        assert built == workload
        assert "program" in vars(built)
        assert _shape(built.program) == _shape(program)
        assert _shape(unbuilt.program) == _shape(program)

    def test_crosses_a_process_pool(self):
        built = get_workload("tiny", scale=0.2)
        expected = built.program.size
        workloads = [get_workload("tiny", scale=0.2), built]
        with concurrent.futures.ProcessPoolExecutor(2) as pool:
            sizes = list(pool.map(_program_size, workloads))
        assert sizes == [expected, expected]


def _program_size(workload) -> int:
    return workload.program.size
