"""Acceptance tests: ``--trace``/``--metrics`` through the real CLI.

The ISSUE-level criterion: ``repro sweep --jobs 2 --trace out.json``
produces a valid Chrome-trace file whose span set is identical (modulo
timings) to the serial run, and ``repro report out.json`` renders
stage timings and cache hit rates from it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main
from repro.obs.report import POINT_SPAN

#: Span name of one grid-chunk (work-unit) evaluation.
CHUNK_SPAN = "chunk.evaluate"

#: Timing-only span attributes, excluded from identity comparisons.
TIMING_ARGS = ("cpu_us", "depth")

SWEEP_ARGS = [
    "sweep", "--workload", "tiny", "--sizes", "64",
    "--algorithms", "casa", "steinke", "--scale", "0.2",
]


def traced_sweep(tmp_path, label, extra=()):
    """Run one traced sweep against a private cache; returns the doc."""
    trace_file = tmp_path / f"{label}.json"
    argv = SWEEP_ARGS + [
        "--cache-dir", str(tmp_path / f"cache-{label}"),
        "--trace", str(trace_file), *extra,
    ]
    assert main(argv) == 0
    return trace_file, json.loads(trace_file.read_text())


def point_signatures(document):
    """Sorted functional signatures of the work-unit spans."""
    return sorted(
        tuple(sorted(
            (key, value)
            for key, value in event["args"].items()
            if key not in TIMING_ARGS
        ))
        for event in document["traceEvents"]
        if event["name"] in (POINT_SPAN, CHUNK_SPAN)
    )


def test_parallel_trace_matches_serial(tmp_path, capsys):
    _, serial = traced_sweep(tmp_path, "serial")
    _, parallel = traced_sweep(tmp_path, "parallel",
                               extra=["--jobs", "2"])
    capsys.readouterr()

    # Both are valid Chrome-trace documents.
    for document in (serial, parallel):
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"], "no spans recorded"
        for event in document["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert isinstance(event["name"], str)

    # Identical span set modulo timings: same names, same design-point
    # evaluations with the same functional attributes.
    serial_names = {e["name"] for e in serial["traceEvents"]}
    parallel_names = {e["name"] for e in parallel["traceEvents"]}
    assert serial_names == parallel_names
    assert point_signatures(serial) == point_signatures(parallel)

    # The expected instrumentation is present on a cold run: one
    # chunk per allocator, one design-point span per capacity step.
    assert CHUNK_SPAN in serial_names
    assert POINT_SPAN in serial_names
    assert "engine.resolve.result" in serial_names
    assert "ilp.solve" in serial_names
    assert "sim.hierarchy" in serial_names
    assert "trace.generate" in serial_names
    assert "graph.build" in serial_names


def test_report_renders_stage_timings_and_hit_rates(tmp_path, capsys):
    trace_file, _ = traced_sweep(tmp_path, "reported")
    capsys.readouterr()

    assert main(["report", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "# Run report: `sweep`" in out
    assert "## Stage timings" in out
    assert "execution" in out and "hit rate" in out
    assert "## Cache behaviour" in out
    assert "simulated I-cache" in out
    assert "## Slowest design points" in out
    assert "algorithm=casa" in out

    assert main(["report", str(trace_file), "--json", "--top", "2"]) \
        == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "sweep"
    assert summary["stages"]["execution"]["computed"] == 1
    assert len(summary["slowest"]) <= 2


def test_report_exits_quietly_when_stdout_closes(tmp_path, capsys):
    """``repro report RUNFILE | head -1`` prints no traceback.

    The pipe's read end is closed before the child writes, so its
    first write fails with EPIPE, as when ``head`` has exited.
    """
    trace_file, _ = traced_sweep(tmp_path, "piped")
    capsys.readouterr()
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "repro", "report", str(trace_file)],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert child.stderr.decode() == ""
    assert child.returncode == 0


def test_metrics_flag_prints_registry(tmp_path, capsys):
    argv = SWEEP_ARGS + [
        "--cache-dir", str(tmp_path / "cache"), "--metrics",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out
    assert "ilp.solves" in out
    assert "sim.cache_accesses" in out
    assert "engine.stage.result.computed" in out


def test_trace_embeds_record_and_metrics(tmp_path):
    _, document = traced_sweep(tmp_path, "meta")
    metadata = document["casa"]
    assert metadata["command"] == "sweep"
    assert metadata["record"]["execution"]["computed"] == 1
    assert metadata["metrics"]["graph.builds"]["value"] == 1
    assert "--trace" in metadata["argv"]
