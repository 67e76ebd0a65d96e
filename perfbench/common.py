"""Shared pieces of the benchmark: paths, child processes, output checks.

Every child process is started by :class:`Child` with ``src/`` on its
path and reaped with ``os.wait4`` so that its CPU time and peak RSS come
from the kernel's rusage, not from sampling.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
CHILD = HERE / "child.py"
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: repro CLI arguments of each CLI workload (seed and cache dir added
#: per op).  ``table1-warm`` runs ``table1`` against a filled cache.
CLI_ARGS: dict[str, list[str]] = {
    "fig4-mpeg-cold": ["fig4", "--workload", "mpeg", "--jobs", "1"],
    "sweep-mpeg-cold": ["sweep", "--workload", "mpeg",
                        "--algorithms", "steinke", "ross", "--jobs", "1"],
    "table1-warm": ["table1", "--jobs", "1"],
}

#: CLI seeds the CLI workloads draw from; ``expected/`` holds the text
#: of each.  The branch & bound effort of ``fig4`` differs by seed (one
#: seed cost 40% more than its neighbours), so each run cycles through
#: consecutive pool seeds and its median averages over them.
SEED_POOL = 32

#: The "engine stages" block ends each line with a measured duration,
#: and its stage list depends on the backend (the reference interpreter
#: compiles no fetch streams), so the whole block is left out of the
#: comparison; the exhibit tables above it are compared in full.
_STAGE_BLOCK = re.compile(
    r"^engine stages \(.*\):\n(?:[ \t]+.*\n?)*", re.MULTILINE)


#: Host-speed calibration.  On the shared two-CPU host the numbers in
#: README.md come from, the speed of both CPUs moved together between
#: phases lasting minutes, up to 1.5x apart: no run length averages that
#: out, and op times and import times moved together with it.  A run
#: therefore also times, in fresh interpreters, the import of the numeric
#: libraries the program itself loads at start-up (code outside this
#: repository, so no change to the program can move it), and reports its
#: CPU-bound times scaled by ``CALIBRATION_REF_S / median calibration``:
#: seconds on a host where that import takes ``CALIBRATION_REF_S``.
CALIBRATION_REF_S = 1.0
CALIBRATION = "import numpy, scipy.optimize, scipy.sparse"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, dead child)."""


def check_tree() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro package under {SRC}")


def mask(text: str) -> str:
    """*text* without its engine-stage block."""
    return _STAGE_BLOCK.sub("", text)


def expected_path(workload: str, seed: int) -> Path:
    """Where the stored expected stdout of *workload* at *seed* lives."""
    return EXPECTED / f"{workload}.seed{seed}.txt"


def child_env(**extra: str) -> dict[str, str]:
    """Environment of a repro child: ``src/`` importable, no overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CASA_", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


@dataclass
class ChildRun:
    """Resource use of one finished child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    started: float


class Child:
    """A running ``child.py`` process, reaped with its rusage.

    Args:
        argv: repro CLI arguments.
        workdir: directory for the stdout/stderr files.
        name: file-name stem for those files.
        env: environment overrides on top of :func:`child_env`.
        timeout_s: the child is killed after this long.
    """

    def __init__(self, argv: list[str], workdir: Path, name: str,
                 env: dict[str, str] | None = None,
                 timeout_s: float = 170.0) -> None:
        self.stdout_path = workdir / f"{name}.out"
        self.stderr_path = workdir / f"{name}.err"
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.started = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, str(CHILD), *argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=child_env(**(env or {})), cwd=workdir,
            )
        self._timer = threading.Timer(timeout_s, self.kill)
        self._timer.daemon = True
        self._timer.start()
        self.result: ChildRun | None = None

    def kill(self) -> None:
        """Kill the child if it is still running."""
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        """Ask the child to stop (SIGTERM: the daemon drains)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self) -> ChildRun:
        """Block until the child exits; return its resource use."""
        if self.result is not None:
            return self.result
        _, status, usage = os.wait4(self.proc.pid, 0)
        return self._finish(status, usage)

    def cpu_so_far(self) -> float:
        """User+sys CPU seconds the running child has used until now."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def done(self) -> bool:
        """Whether the child has exited (reaping it if so)."""
        if self.result is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            return False
        self._finish(status, usage)
        return True

    def _finish(self, status: int, usage) -> ChildRun:
        ended = time.monotonic()
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.result = ChildRun(
            returncode=self.proc.returncode,
            wall_s=ended - self.started,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            started=self.started,
        )
        return self.result

    def stdout(self) -> str:
        """What the child wrote to standard output."""
        return self.stdout_path.read_text()

    def stderr_tail(self, lines: int = 5) -> str:
        """The last lines of the child's standard error."""
        text = self.stderr_path.read_text(errors="replace")
        return "\n".join(text.splitlines()[-lines:])


def run_cli(argv: list[str], workdir: Path, name: str,
            env: dict[str, str] | None = None) -> tuple[ChildRun, str]:
    """Run one repro CLI command to completion; return use and stdout."""
    child = Child(argv, workdir, name, env=env)
    run = child.wait()
    if run.returncode != 0:
        raise BenchError(f"repro {' '.join(argv)} exited "
                         f"{run.returncode}: {child.stderr_tail()}")
    return run, child.stdout()


def calibrate() -> float:
    """Wall seconds of one fresh interpreter running :data:`CALIBRATION`."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", CALIBRATION],
                          stdin=subprocess.DEVNULL, timeout=120,
                          env=child_env())
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        raise BenchError("calibration interpreter failed")
    return elapsed


def fresh_dir(path: Path) -> Path:
    """An empty directory at *path*."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
