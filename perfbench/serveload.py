"""The ``serve-mixed`` workload: a fresh daemon and a closed-loop client.

Two client connections (this module's own ``http.client`` loop, not the
program's load generator) each send their share of a seeded request
list back to back, for the run's measured seconds.  Every answer is
checked against the same request computed in-process with ``Session``
before the daemon starts.  Latency percentiles come from the raw
samples.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import sys
import threading
import time
from pathlib import Path

import tracing
from common import SRC, BenchError, Child, calibrate
from measure import CLI_LAYERS, Outcome

#: Client connections; the daemon runs with ``--jobs 1``.
CONNECTIONS = 2
#: Daemon spawns per run; ``setup_s`` is their median.
SETUPS = 3
#: Request mix per (workload, executor seed) configuration.
MIX: tuple[tuple[str, str | None], ...] = (
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
#: Workloads served, each at two executor seeds drawn from the run seed.
WORKLOADS = ("tiny", "adpcm")
SEEDS_PER_WORKLOAD = 2
#: Length of the seeded request sequence each run cycles through.
SEQUENCE = 20000


def distinct_requests(seed: int) -> list[dict]:
    """The distinct request payloads of the mix for run seed *seed*."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.serve.schema import SCHEMA_VERSION

    rng = random.Random(seed)
    payloads = []
    for workload in WORKLOADS:
        for _ in range(SEEDS_PER_WORKLOAD):
            executor_seed = rng.randrange(1, 1 << 20)
            for kind, algorithm in MIX:
                payload = {"schema_version": SCHEMA_VERSION, "kind": kind,
                           "workload": workload, "seed": executor_seed}
                if algorithm is not None:
                    payload["algorithm"] = algorithm
                payloads.append(payload)
    return payloads


def request_sequence(seed: int, count: int) -> list[int]:
    """Indexes into :func:`distinct_requests`, in sending order."""
    rng = random.Random(seed ^ 0x5EED)
    return [rng.randrange(count) for _ in range(SEQUENCE)]


def answer_of(payload: dict) -> object:
    """The comparable content of a request's answer, computed in-process."""
    from repro.api import Session
    from repro.io import serde

    session = Session(payload["workload"], seed=payload["seed"])
    kind = payload["kind"]
    algorithm = payload.get("algorithm")
    options = {"max_regions": 4} if algorithm == "ross" else {}
    if kind == "simulate":
        body = serde.report_to_dict(session.simulate())
    elif kind == "conflict_graph":
        body = serde.conflict_graph_to_dict(session.conflict_graph())
    elif kind == "allocate":
        body = serde.allocation_to_dict(
            session.allocate(algorithm, **options))
    elif kind == "evaluate":
        body = serde.experiment_result_to_dict(
            session.evaluate(algorithm, **options))
    else:
        body = [serde.experiment_result_to_dict(step)
                for step in session.sweep(algorithm, **options)]
    return signature(kind, body)


def signature(kind: str, body) -> object:
    """Energy totals, resident sets and report counters of an answer."""
    def allocation(data):
        return (sorted(data["spm_resident"]),
                [(r["start"], r["size"]) for r in data["loop_regions"]])

    def result(data):
        return (allocation(data["allocation"]),
                f"{data['energy']['total']:.9g}",
                data["report"]["totals"])

    if kind == "simulate":
        return body["totals"]
    if kind == "conflict_graph":
        return body["nodes"], body["edges"]
    if kind == "allocate":
        return allocation(body)
    if kind == "evaluate":
        return result(body)
    return [result(step) for step in body]


def response_body(kind: str, data: dict):
    """The answer part of a decoded response payload."""
    return {"simulate": lambda: data["report"],
            "conflict_graph": lambda: data["graph"],
            "allocate": lambda: data["allocation"],
            "evaluate": lambda: data["result"],
            "sweep": lambda: data["results"]}[kind]()


def expected_answers(payloads: list[dict]) -> list[object]:
    """Every distinct request's answer, computed with ``Session``."""
    from repro.engine.store import set_default_store

    previous = set_default_store("memory")
    try:
        return [answer_of(payload) for payload in payloads]
    finally:
        set_default_store(previous)


class Daemon:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, workdir: Path, name: str,
                 env: dict[str, str] | None = None,
                 timeout_s: float = 60.0) -> None:
        self.child = Child(["serve", "--port", "0", "--jobs", "1"],
                           workdir, name, env=env)
        deadline = self.child.started + timeout_s
        self.url = self._announced(deadline)
        host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self._await_ready(deadline)
        self.setup_s = time.monotonic() - self.child.started

    def _announced(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            if self.child.done():
                raise BenchError("daemon exited before serving: "
                                 + self.child.stderr_tail())
            for line in self.child.stdout().splitlines():
                if line.startswith("serving on "):
                    return line.split()[-1]
            time.sleep(0.002)
        self.child.kill()
        self.child.wait()
        raise BenchError("daemon never announced 'serving on'")

    def _await_ready(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            if self.child.done():
                raise BenchError("daemon exited before ready: "
                                 + self.child.stderr_tail())
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=5)
            try:
                connection.request("GET", "/readyz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        self.child.kill()
        self.child.wait()
        raise BenchError("daemon /readyz never returned 200")

    def stop(self, timeout_s: float = 30.0):
        """SIGTERM (graceful drain), then reap; kill if it hangs."""
        self.child.terminate()
        timer = threading.Timer(timeout_s, self.child.kill)
        timer.start()
        try:
            return self.child.wait()
        finally:
            timer.cancel()


def load(daemon: Daemon, bodies: list[bytes], kinds: list[str],
         sequence: list[int], seconds: float):
    """Closed-loop load for *seconds*; ``(records, wall_s)``.

    A record is ``(request index, HTTP status, body, latency_s)``.
    """
    records: list[list[tuple[int, int, bytes, float]]] = [
        [] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    began = time.monotonic()
    stop_at = began + seconds
    ends = [began] * CONNECTIONS

    def client(slot: int) -> None:
        connection = http.client.HTTPConnection(daemon.host, daemon.port,
                                                timeout=60)
        headers = {"Content-Type": "application/json"}
        try:
            position = slot
            while time.monotonic() < stop_at:
                index = sequence[position % len(sequence)]
                position += CONNECTIONS
                sent = time.perf_counter()
                connection.request("POST", f"/v1/{kinds[index]}",
                                   bodies[index], headers)
                response = connection.getresponse()
                data = response.read()
                latency = time.perf_counter() - sent
                records[slot].append((index, response.status, data,
                                      latency))
            ends[slot] = time.monotonic()
        except (OSError, http.client.HTTPException) as error:
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"client connection failed: {errors[0]!r}")
    return [r for per in records for r in per], max(ends) - began


def check_records(outcome: Outcome, records, kinds, answers) -> None:
    """Count every request; wrong status or answer is a failure."""
    for index, status, data, _ in records:
        if status != 200:
            outcome.check(False, f"request {index}: HTTP {status}")
            continue
        try:
            payload = json.loads(data)
            state = payload.get("status")
            ok = state in ("ok", "retried", "degraded") and signature(
                kinds[index], response_body(kinds[index], payload)
            ) == answers[index]
        except (ValueError, KeyError, TypeError, AttributeError):
            state, ok = "undecodable", False
        outcome.check(ok, f"request {index}: status {state}, "
                          f"answer {'ok' if ok else 'wrong'}")


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) of *values*, interpolated."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_serve_workload(seed: int, seconds: float, trace: bool,
                       workdir: Path) -> Outcome:
    """Run ``serve-mixed``; with *trace*, a traced daemon follows."""
    outcome = Outcome()
    payloads = distinct_requests(seed)
    kinds = [payload["kind"] for payload in payloads]
    bodies = [json.dumps(payload).encode() for payload in payloads]
    sequence = request_sequence(seed, len(payloads))
    answers = expected_answers(payloads)
    if trace:
        run_traced(outcome, workdir, bodies, kinds, sequence, answers,
                   seconds)
        return outcome
    for attempt in range(SETUPS):
        outcome.calibrations.append(calibrate())
        daemon = Daemon(workdir, f"daemon-{attempt}")
        outcome.add_scaled("setup", daemon.setup_s)
        if attempt < SETUPS - 1:
            daemon.stop()
    try:
        ready_cpu = daemon.child.cpu_so_far()
        records, wall = load(daemon, bodies, kinds, sequence, seconds)
        load_cpu = daemon.child.cpu_so_far() - ready_cpu
    finally:
        usage = daemon.stop()
    outcome.calibrations.append(calibrate())
    outcome.check(usage.returncode == 0,
                  f"daemon exited {usage.returncode}")
    check_records(outcome, records, kinds, answers)
    latencies = [record[3] for record in records]
    count = len(latencies)
    outcome.set("wall_s", statistics.median(latencies), "s", count)
    outcome.set("cpu_raw_s", load_cpu / count, "s", count)
    outcome.scaled.add("cpu")
    outcome.set("peak_rss_mb", usage.peak_rss_mb, "MB", 1)
    outcome.set("rps", count / wall, "1/s", count)
    outcome.set("latency_p50_ms", 1000 * percentile(latencies, 50), "ms",
                count)
    outcome.set("latency_p99_ms", 1000 * percentile(latencies, 99), "ms",
                count)
    return outcome


def run_traced(outcome: Outcome, workdir: Path, bodies, kinds, sequence,
               answers, seconds: float) -> None:
    """Half the time untraced, half traced; layers from the traced half."""
    p50 = {}
    for traced in (False, True):
        span_file = workdir / "daemon-spans.json"
        env = {"PERFBENCH_SPANS": str(span_file)} if traced else None
        daemon = Daemon(workdir, f"daemon-{int(traced)}", env=env)
        try:
            records, _ = load(daemon, bodies, kinds, sequence,
                              seconds / 2)
        finally:
            usage = daemon.stop()
        outcome.check(usage.returncode == 0,
                      f"daemon exited {usage.returncode}")
        check_records(outcome, records, kinds, answers)
        p50[traced] = statistics.median(r[3] for r in records)
    payload = json.loads(span_file.read_text())
    totals = tracing.layer_totals(payload)
    for name, unit in CLI_LAYERS:
        if name != "untraced_s":
            outcome.add_layer(name, totals.get(name, 0.0), unit, 1)
    durations: dict[str, list[float]] = {}
    for _, name, start, end, _ in payload["spans"]:
        durations.setdefault(name, []).append((end - start) * 1000.0)
    durations["serve.queue"] = payload["samples"].get("serve.queue_ms", [])
    for layer in ("parse", "admit", "queue", "compute", "respond"):
        values = durations.get(f"serve.{layer}", [])
        for q in (50, 99):
            outcome.add_layer(f"serve.{layer}_ms.p{q}",
                              percentile(values, q) if values else 0.0,
                              "ms", len(values))
    sizes = payload["samples"].get("serve.batch.size", [])
    outcome.add_layer("serve.batch.size",
                      statistics.mean(sizes) if sizes else 0.0, "count",
                      len(sizes))
    outcome.add_layer("trace.overhead_s", p50[True] - p50[False], "s",
                      2)
