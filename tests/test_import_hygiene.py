"""Start-up import hygiene: a command loads only what it runs.

numpy and the allocators load only when a command computes, HiGHS's
binding only when a model is solved (and never through
``scipy.optimize``), the run-file writer only under ``--trace``, and
every package export still resolves lazily.  ``import repro.cli``
builds the parser without the store, the registries or
``multiprocessing``, and a cold serial exhibit loads the event
recorder, the run log and the process pool only when a flag asks.  A CLI process runs numpy
on one BLAS thread unless the user says otherwise; the library leaves
the environment alone.  Each case runs in a fresh interpreter, since
``sys.modules`` and ``os.environ`` of the test process already hold
whatever other tests imported or set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))

#: The HiGHS binding a solve loads from its file.
HIGHS_CORE = "scipy.optimize._highspy._core"

#: What importing HiGHS through ``scipy.optimize`` would load.
SCIPY_STACK = ("scipy", "scipy.optimize", "scipy.sparse", "scipy.linalg")

SWEEP = ["sweep", "--workload", "tiny", "--scale", "0.2", "--no-cache",
         "--algorithms"]


def run_fresh(tmp_path, code, env=ENV):
    """Run *code* in a new interpreter; return its completed process."""
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env,
        cwd=tmp_path, timeout=300,
    )
    assert child.returncode == 0, child.stderr.decode()
    return child


def loaded_after(tmp_path, statement,
                 watch=SCIPY_STACK + (HIGHS_CORE, "networkx")):
    """Run *statement* fresh; return the modules of *watch* found in
    ``sys.modules`` after it (reported on stderr, so stdout stays the
    program's) and the program's stdout."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        f"sys.stderr.write(json.dumps([m for m in {list(watch)!r} "
        "if m in sys.modules]))\n"
    )
    child = run_fresh(tmp_path, code)
    loaded = json.loads(child.stderr.decode().splitlines()[-1])
    return set(loaded), child.stdout.decode()


def cli_main(argv):
    return f"import repro.cli\nassert repro.cli.main({argv!r}) == 0"


#: Commands that compute nothing, as fresh-interpreter statements.
#: ``--help`` exits through argparse's ``SystemExit(0)``.
IDLE_COMMANDS = {
    "import": "import repro.cli",
    "help": "import repro.cli\ntry:\n    repro.cli.main(['--help'])\n"
            "except SystemExit as exit:\n    assert exit.code == 0\n"
            "else:\n    raise AssertionError('--help did not exit')",
    "workloads": cli_main(["workloads"]),
    "cache-stats": cli_main(["cache", "stats", "--cache-dir", "cache"]),
}

COMPUTE_STACK = ("numpy", "scipy", HIGHS_CORE, "repro.core",
                 "repro.evaluation")


@pytest.mark.parametrize("command", sorted(IDLE_COMMANDS))
def test_idle_command_loads_no_compute_stack(tmp_path, command):
    loaded, _ = loaded_after(tmp_path, IDLE_COMMANDS[command],
                             watch=COMPUTE_STACK)
    assert loaded == set()


#: What building the parser may not load: the artifact store, the
#: workload registry and the program model behind it, the cache
#: simulator, the process-pool machinery and numpy.
PARSER_ONLY = ("repro.engine.store", "repro.workloads.registry",
               "repro.program", "repro.memory.cache", "multiprocessing",
               "numpy")


@pytest.mark.parametrize("command", ["import", "help"])
def test_parser_loads_no_store_registry_or_pool(tmp_path, command):
    loaded, _ = loaded_after(tmp_path, IDLE_COMMANDS[command],
                             watch=PARSER_ONLY)
    assert loaded == set()


#: What a serial, unobserved cold exhibit of CASA and Steinke never
#: runs: the event recorder, the reference simulator's replacement
#: policies, the Ross and greedy allocators, the run log and the
#: process pool.
COLD_FIG4_UNUSED = ("repro.obs.events", "repro.memory.replacement",
                    "repro.core.ross", "repro.core.greedy_allocator",
                    "repro.obs.logging", "concurrent.futures.process",
                    "multiprocessing")

COLD_FIG4 = ["fig4", "--workload", "tiny", "--scale", "0.2", "--jobs",
             "1", "--cache-dir", "cache"]


def test_cold_exhibit_loads_only_what_it_runs(tmp_path):
    loaded, out = loaded_after(tmp_path, cli_main(COLD_FIG4),
                               watch=COLD_FIG4_UNUSED)
    assert loaded == set()
    assert "average energy improvement" in out


@pytest.mark.parametrize("flags, module", [
    (["--events"], "repro.obs.events"),
    (["--log", "run.log"], "repro.obs.logging"),
    (["--jobs", "2"], "concurrent.futures.process"),
])
def test_cold_exhibit_loads_what_a_flag_asks_for(tmp_path, flags, module):
    # Guards the test above: each watched module does load once a
    # flag needs it, and the exhibit is the plain run's.
    _, plain = loaded_after(tmp_path, cli_main(COLD_FIG4[:-1] + ["plain"]),
                            watch=())
    loaded, out = loaded_after(tmp_path, cli_main(COLD_FIG4 + flags),
                               watch=(module,))
    assert loaded == {module}
    assert out.startswith(plain)


def test_warm_exhibit_loads_no_scipy(tmp_path):
    # Nor numpy: a warm exhibit simulates and solves nothing.
    fig4 = ["fig4", "--workload", "tiny", "--scale", "0.2",
            "--cache-dir", "cache"]
    watch = SCIPY_STACK + (HIGHS_CORE, "networkx", "numpy")
    cold, cold_out = loaded_after(tmp_path, cli_main(fig4), watch=watch)
    assert cold == {HIGHS_CORE, "numpy"}
    warm, warm_out = loaded_after(tmp_path, cli_main(fig4), watch=watch)
    assert warm == set()
    assert warm_out == cold_out


#: Every package whose exports resolve lazily.
LAZY_PACKAGES = ("repro", "repro.core", "repro.engine", "repro.evaluation",
                 "repro.ilp", "repro.memory", "repro.memory.kernel",
                 "repro.obs", "repro.program", "repro.resilience",
                 "repro.workloads")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(tmp_path, package):
    run_fresh(tmp_path, (
        "import importlib\n"
        f"package = importlib.import_module({package!r})\n"
        "listed = dir(package)\n"
        "for name in package.__all__:\n"
        "    assert name in listed, name\n"
        "    getattr(package, name)\n"
    ))


def test_unknown_export_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Sesion'"):
        getattr(repro, "Sesion")


def test_session_import_still_works(tmp_path):
    run_fresh(tmp_path, "from repro import Session\n"
                        "assert Session.__module__ == 'repro.api'")


def test_cli_import_loads_neither_scipy_nor_networkx(tmp_path):
    assert loaded_after(tmp_path, "import repro.cli")[0] == set()


def test_cli_import_loads_no_serve_layer(tmp_path):
    # The ``serve`` parser needs none of the daemon stack; its
    # defaults stay in ``ServiceConfig`` and load on dispatch.
    assert loaded_after(tmp_path, "import repro.cli",
                        watch=("repro.serve",))[0] == set()


def test_steinke_ross_sweep_never_loads_scipy(tmp_path):
    statement = cli_main(SWEEP + ["steinke", "ross"])
    assert loaded_after(tmp_path, statement)[0] == set()


def test_casa_point_loads_scipy_and_solves(tmp_path):
    # The solve loads HiGHS's own binding and nothing of
    # scipy.optimize, scipy.sparse or scipy.linalg.
    statement = cli_main(SWEEP + ["casa", "--metrics"])
    loaded, out = loaded_after(tmp_path, statement)
    assert loaded == {HIGHS_CORE}
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
assert not [name for name in sys.modules if name.startswith("scipy")]
if RAW:
    import repro.ilp.model as ilp_model
    ilp_model._run_quietly = lambda highs: highs.run()
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


@pytest.mark.parametrize("scipy_first", [False, True])
def test_highs_binding_is_shared_with_scipy(tmp_path, scipy_first):
    # A pybind11 module cannot register its types twice, so the binding
    # a solve loads from its file and the one ``scipy.optimize``
    # imports must be one module object, in either order.
    run_fresh(tmp_path, (
        "import sys\n"
        f"if {scipy_first}:\n"
        "    from scipy.optimize import milp\n"
        "from repro.ilp.model import Model\n"
        "model = Model()\n"
        "model.set_objective(model.add_binary('x') + 1.0)\n"
        "assert model.solve().objective == 1.0\n"
        "from scipy.optimize import milp\n"
        "from repro.ilp._highs import core\n"
        f"assert sys.modules[{HIGHS_CORE!r}] is core\n"
        "assert milp([1.0], integrality=[1], bounds=(0, 1)).status == 0\n"
    ))


def test_missing_highs_binding_is_a_solver_error(tmp_path):
    run_fresh(tmp_path, (
        "import importlib.machinery\n"
        "from repro.errors import SolverError\n"
        "from repro.ilp.model import Model\n"
        "model = Model()\n"
        "model.set_objective(model.add_binary('x') + 1.0)\n"
        "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.missing']\n"
        "try:\n"
        "    model.solve()\n"
        "except SolverError as error:\n"
        "    assert '_highspy/_core.missing' in str(error), error\n"
        "    assert 'scipy >= 1.15' in str(error), error\n"
        "else:\n"
        "    raise AssertionError('solved without a binding')\n"
    ))


def test_plain_sweep_loads_no_run_file_writer(tmp_path):
    watch = ("repro.obs.report",)
    plain = cli_main(SWEEP + ["casa"])
    assert loaded_after(tmp_path, plain, watch=watch)[0] == set()
    traced = cli_main(SWEEP + ["casa", "--trace", "run.json"])
    assert loaded_after(tmp_path, traced, watch=watch)[0] == set(watch)
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["traceEvents"]


#: The BLAS thread-count variable a CLI process sets for itself.
BLAS_THREADS = "OPENBLAS_NUM_THREADS"

#: The test environment without a user's own BLAS thread count.
NO_BLAS_ENV = {key: value for key, value in ENV.items()
               if key != BLAS_THREADS}


def blas_setting_after(tmp_path, statement, env=NO_BLAS_ENV):
    """Run *statement* fresh; return ``$OPENBLAS_NUM_THREADS`` after
    it and the count of the process's OS threads (``None`` off
    Linux)."""
    child = run_fresh(tmp_path, (
        "import json, os, sys\n"
        f"{statement}\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) "
        "else None\n"
        f"sys.stderr.write(json.dumps([os.environ.get({BLAS_THREADS!r}), "
        "threads]))\n"
    ), env=env)
    return json.loads(child.stderr.decode().splitlines()[-1])


def test_library_leaves_the_environment_alone(tmp_path):
    setting, _ = blas_setting_after(tmp_path, (
        "import repro\n"
        "from repro import Session\n"
        "Session('tiny', spm_size=128, scale=0.2).evaluate('casa')"
    ))
    assert setting is None


def test_cli_runs_one_blas_thread_unless_the_user_sets_one(tmp_path):
    sweep = cli_main(SWEEP + ["casa"])
    default, default_threads = blas_setting_after(tmp_path, sweep)
    assert default == "1"
    user, user_threads = blas_setting_after(
        tmp_path, sweep, env={**NO_BLAS_ENV, BLAS_THREADS: "2"})
    assert user == "2"
    if default_threads is None:
        pytest.skip("OS threads are counted through /proc (Linux)")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    assert default_threads < user_threads


#: Patches the pool initializer to record each worker's BLAS setting.
WORKER_PROBE = """
import os
from repro.resilience import healing

real_init = healing._init_worker


def init_worker(*args):
    with open(f"blas-{os.getpid()}.txt", "w") as handle:
        handle.write(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    real_init(*args)
"""


def test_pool_workers_inherit_one_blas_thread(tmp_path):
    (tmp_path / "worker_probe.py").write_text(WORKER_PROBE)
    blas_setting_after(tmp_path, (
        "sys.path.insert(0, os.getcwd())\n"
        "import repro.cli, worker_probe\n"
        "from repro.resilience import healing\n"
        "healing._init_worker = worker_probe.init_worker\n"
        + cli_main(SWEEP + ["casa", "steinke", "--jobs", "2"])
    ))
    seen = [path.read_text() for path in tmp_path.glob("blas-*.txt")]
    assert seen and set(seen) == {"1"}, seen
