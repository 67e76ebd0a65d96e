"""Start-up import hygiene: scipy loads only when a model is solved.

Each case runs in a fresh interpreter, since ``sys.modules`` of the
test process already holds whatever other tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))

SWEEP = ["sweep", "--workload", "tiny", "--scale", "0.2", "--no-cache",
         "--algorithms"]


def run_fresh(tmp_path, code):
    """Run *code* in a new interpreter; return its completed process."""
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=ENV,
        cwd=tmp_path, timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    return child


def loaded_after(tmp_path, statement):
    """Run *statement* fresh; return the set of scipy/networkx found in
    ``sys.modules`` after it (reported on stderr, so stdout stays the
    program's) and the program's stdout."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "sys.stderr.write(json.dumps(sorted({m.split('.')[0] for m in "
        "sys.modules} & {'scipy', 'networkx'})))\n"
    )
    child = run_fresh(tmp_path, code)
    loaded = json.loads(child.stderr.decode().splitlines()[-1])
    return set(loaded), child.stdout.decode()


def cli_main(argv):
    return f"import repro.cli\nassert repro.cli.main({argv!r}) == 0"


def test_cli_import_loads_neither_scipy_nor_networkx(tmp_path):
    assert loaded_after(tmp_path, "import repro.cli")[0] == set()


def test_steinke_ross_sweep_never_loads_scipy(tmp_path):
    statement = cli_main(SWEEP + ["steinke", "ross"])
    assert loaded_after(tmp_path, statement)[0] == set()


def test_casa_point_loads_scipy_and_solves(tmp_path):
    statement = cli_main(SWEEP + ["casa", "--metrics"])
    loaded, out = loaded_after(tmp_path, statement)
    assert loaded == {"scipy"}
    solves = [line for line in out.splitlines() if "ilp.solves" in line]
    assert solves and int(solves[0].split()[-1]) > 0, solves


FIRST_SOLVE = """
import sys
from repro.core.casa import CasaAllocator
from repro.engine.runner import StageRunner, make_workbench
from repro.engine.store import ArtifactStore

_, bench = make_workbench("mpeg", 1.0, 1,
                          runner=StageRunner(store=ArtifactStore()))
model, _ = CasaAllocator().build_model(
    bench.conflict_graph, 128, bench.spm_energy_model(128))
assert "scipy" not in sys.modules
if RAW:
    import repro.ilp.model as ilp_model
    from scipy.optimize import milp
    ilp_model._milp_quietly = milp
sys.stderr.write(model.solve().status.name)
"""


def test_first_solve_writes_nothing_to_stdout(tmp_path):
    child = run_fresh(tmp_path, "RAW = False\n" + FIRST_SOLVE)
    assert child.stderr.decode().endswith("OPTIMAL")
    assert child.stdout == b""


def test_first_raw_highs_solve_does_print(tmp_path):
    # Guards the test above: HiGHS does print on this first solve when
    # fd 1 is not redirected, so the empty capture means something.
    child = run_fresh(tmp_path, "RAW = True\n" + FIRST_SOLVE)
    assert child.stderr.decode().endswith("OPTIMAL")
    assert b"tmpSolver.run()" in child.stdout
