"""Layer tracing for the benchmark's traced runs.

:class:`Tracer` wraps public functions of the program from outside:
nothing under ``src/`` changes.  Each wrapped call records a span
``(name, start, end, parent)`` on a per-thread stack; spans stay in
memory and are written as JSON when the process exits (the daemon exits
after its SIGTERM drain).  Names that modules rebound with
``from ... import`` are found by identity in ``sys.modules`` and
replaced too, so ``repro.core.pipeline.simulate`` and friends are
traced like the originals.

:func:`layer_totals` turns one span file into per-layer self times and
counts.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: (module, attribute path, span name) of every traced function.
TRACED: tuple[tuple[str, str, str], ...] = (
    ("repro.program.executor", "execute_program", "program.execute"),
    ("repro.traces.tracegen", "generate_traces", "traces.generate"),
    ("repro.memory.kernel.stream", "compile_stream",
     "memory.kernel.compile"),
    ("repro.memory.kernel.grid", "simulate_grid", "memory.kernel.replay"),
    ("repro.memory.kernel.vector", "simulate_stream",
     "memory.kernel.replay"),
    ("repro.memory.hierarchy", "simulate", "memory.simulate"),
    ("repro.core.conflict_graph", "ConflictGraph.from_simulation",
     "core.conflict_graph"),
    ("repro.core.casa", "CasaAllocator.allocate", "core.casa"),
    ("repro.core.steinke", "SteinkeAllocator.allocate", "core.steinke"),
    ("repro.core.ross", "RossLoopCacheAllocator.allocate", "core.ross"),
    ("repro.engine.store", "ArtifactStore.get", "engine.store.get"),
    ("repro.engine.store", "ArtifactStore.put", "engine.store.put"),
    ("repro.evaluation.fig4", "Fig4Result.render", "evaluation.render"),
    ("repro.evaluation.table1", "Table1Result.render",
     "evaluation.render"),
    ("repro.utils.tables", "format_table", "evaluation.render"),
    ("repro.serve.schema", "request_from_json", "serve.parse"),
    ("repro.serve.admission", "AdmissionController.try_admit",
     "serve.admit"),
    ("repro.api", "Session.conflict_graph", "serve.compute"),
)

#: Response classes whose ``to_json`` is the serve respond layer.
RESPONSE_CLASSES = ("_ResponseBase", "SimulateResponse",
                    "ConflictGraphResponse", "AllocateResponse",
                    "EvaluateResponse", "SweepResponse", "ShedResponse")


class Tracer:
    """Records spans of one process and writes them at exit.

    Args:
        path: the JSON file written at exit.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._submitted: dict[int, float] = {}
        atexit.register(self.write)

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """A context manager recording one span named *name*."""
        return _Span(self, name)

    def _open(self) -> int:
        with self._lock:
            index = len(self.spans)
            self.spans.append(("", 0.0, 0.0, -1))
        return index

    def wrap(self, func: Callable, name: str) -> Callable:
        """*func* recording a span per call."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return func(*args, **kwargs)
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function, including rebound names."""
        with self.span("trace.install"):
            replaced: dict[int, Callable] = {}
            for module_name, path, name in TRACED:
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.wrap(raw.__func__, name)))
                    continue
                traced = self.wrap(raw, name)
                setattr(owner, attr, traced)
                replaced[id(raw)] = traced
            self._install_engine()
            self._install_serve(replaced)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    traced = replaced.get(id(value))
                    if traced is not None:
                        setattr(module, attr, traced)

    def _install_engine(self) -> None:
        from repro.engine.runner import StageRunner
        from repro.ilp.model import Model

        tracer = self
        resolve = StageRunner.resolve

        @functools.wraps(resolve)
        def traced_resolve(self, stage, digest, compute, **kwargs):
            ran = []

            def counted():
                ran.append(True)
                return compute()

            with _Span(tracer, "engine.resolve"):
                artifact = resolve(self, stage, digest, counted, **kwargs)
            outcome = "computes" if ran else "hits"
            tracer.count(f"engine.{outcome}")
            tracer.count(f"engine.{stage}.{outcome}")
            return artifact

        StageRunner.resolve = traced_resolve

        solve = Model.solve

        @functools.wraps(solve)
        def traced_solve(self, *args, **kwargs):
            with _Span(tracer, "ilp.solve"):
                result = solve(self, *args, **kwargs)
            tracer.count("ilp.nodes", result.nodes_explored)
            return result

        Model.solve = traced_solve

    def _install_serve(self, replaced: dict[int, Callable]) -> None:
        from repro.resilience import healing
        from repro.serve import schema
        from repro.serve.batching import MicroBatcher
        from repro.serve.service import AllocationService

        tracer = self
        for class_name in RESPONSE_CLASSES:
            cls = getattr(schema, class_name)
            if "to_json" in cls.__dict__:
                cls.to_json = self.wrap(cls.__dict__["to_json"],
                                        "serve.respond")

        submit = MicroBatcher.submit

        @functools.wraps(submit)
        async def traced_submit(self, key, request):
            tracer._submitted[id(request)] = time.monotonic()
            return await submit(self, key, request)

        MicroBatcher.submit = traced_submit

        execute = AllocationService._execute_groups

        @functools.wraps(execute)
        def traced_execute(self, groups):
            tracer._local.batch = [member for _, members in groups
                                   for member in members]
            try:
                return execute(self, groups)
            finally:
                tracer._local.batch = None

        AllocationService._execute_groups = traced_execute

        healed = healing.map_points_healed

        @functools.wraps(healed)
        def traced_healed(*args, **kwargs):
            members = getattr(tracer._local, "batch", None) or ()
            now = time.monotonic()
            for member in members:
                submitted = tracer._submitted.pop(id(member), None)
                if submitted is not None:
                    tracer.sample("serve.queue_ms",
                                  (now - submitted) * 1000.0)
            if members:
                tracer.sample("serve.batch.size", float(len(members)))
                tracer._local.batch = None
            with _Span(tracer, "serve.compute"):
                return healed(*args, **kwargs)

        healing.map_points_healed = traced_healed
        replaced[id(healed)] = traced_healed

    # -- counters and output -----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name*."""
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Record one sample of distribution *name*."""
        with self._lock:
            self.samples[name].append(value)

    def write(self) -> None:
        """Write spans, counters and samples to :attr:`path`."""
        with self._lock:
            payload = {
                "spans": [[index, *span] for index, span
                          in enumerate(self.spans) if span[0]],
                "counters": dict(self.counters),
                "samples": dict(self.samples),
            }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.path)


class _Span:
    """One open span; closes on ``__exit__`` (also on an exception)."""

    __slots__ = ("tracer", "name", "index", "start", "parent")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else -1
        self.index = self.tracer._open()
        stack.append(self.index)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = time.monotonic()
        self.tracer._stack().pop()
        self.tracer.spans[self.index] = (self.name, self.start, end,
                                         self.parent)


def _resolve(module_name: str, path: str):
    """The object owning attribute *path* of *module_name*, and its name."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def layer_totals(payload: dict[str, Any]) -> dict[str, float]:
    """Per-layer self time (s) and call counts of one span file.

    A span's self time is its duration minus the durations of its
    direct children.  ``<name>.calls`` counts spans; ``covered_s`` is
    the summed duration of top-level spans.  The ILP node and engine
    hit/compute counters are added, with ``engine.hit_ratio``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in payload["spans"]:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, name, start, end, parent in payload["spans"]:
        totals[f"{name}_s"] += (end - start) - child_time[index]
        totals[f"{name}.calls"] += 1
        if parent < 0:
            totals["covered_s"] += end - start
    for name in ("ilp.nodes", "engine.hits", "engine.computes"):
        totals[name] = payload["counters"].get(name, 0)
    resolved = totals["engine.hits"] + totals["engine.computes"]
    totals["engine.hit_ratio"] = (totals["engine.hits"] / resolved
                                  if resolved else 0.0)
    return dict(totals)
