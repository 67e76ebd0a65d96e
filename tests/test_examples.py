"""Smoke tests: every example script runs to completion.

Examples are part of the public deliverable; they must keep working as
the API evolves.  Each is executed in-process (fast paths via small
scale arguments where the script supports them).
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: script name -> argv tail keeping the run fast.
EXAMPLE_ARGS = {
    "quickstart.py": [],
    "custom_workload.py": [],
    "mpeg_casa_vs_steinke.py": ["0.05"],
    "loop_cache_comparison.py": ["adpcm", "0.05"],
    "overlay_demo.py": ["128", "0.1"],
    "wcet_analysis.py": ["adpcm", "0.1"],
    "design_space.py": ["adpcm", "30000", "0.05"],
}


def test_every_example_is_covered():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLE_ARGS), (
        "keep EXAMPLE_ARGS in sync with examples/"
    )


@pytest.mark.parametrize("script", sorted(EXAMPLE_ARGS))
def test_example_runs(script, capsys, monkeypatch):
    path = EXAMPLES_DIR / script
    monkeypatch.setattr(
        sys, "argv", [str(path)] + EXAMPLE_ARGS[script]
    )
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
