"""Closed-loop load generator for the ``repro serve`` daemon.

:func:`run_load` drives a running daemon with a configurable mix of
verbs from closed-loop worker threads (each worker issues its next
request only after the previous one returns — the classic closed
system, so offered load adapts to service capacity instead of piling
up).  Latencies feed the mergeable log-bucket
:class:`~repro.obs.metrics.Histogram` sketch, so the resulting
:class:`LoadReport` carries streaming p50/p90/p99 percentiles; a
request counts as failed when HTTP status is not 200 or the response
envelope's ``status`` is ``failed``.

Shed (HTTP 503 + ``Retry-After``) and ``deadline_exceeded`` answers
are the service *working as designed* under pressure, so they are
accounted separately from failures, and a second histogram tracks the
latency of accepted requests only — the number the overload baseline
bounds (an overloaded daemon's virtue is precisely that accepted work
stays fast while the rest sheds).

:func:`run_adversarial` is the hostile half: slow-loris header drip,
mid-request disconnects, malformed / oversized payloads, unknown
verbs and deadline storms — the client behaviors the hardening layer
must absorb without crashing or leaking work.  The ``repro
serve-chaos`` gate drives both against a real daemon subprocess.

``scripts/loadgen.py`` wraps this module behind an argparse CLI; the
smoke gates (``make serve-smoke`` / ``make serve-chaos-smoke``) and
the bench suite's serve rows route through here.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import itertools
import json
import random
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram
from repro.serve.schema import (
    AllocateRequest,
    EvaluateRequest,
    SimulateRequest,
    SweepRequest,
)

#: Default verb mix: mostly single-point work, some whole-axis sweeps.
DEFAULT_MIX = "simulate=1,allocate=1,evaluate=2,sweep=1"

#: The verbs a mix may name.
MIX_VERBS = ("simulate", "allocate", "evaluate", "sweep")

#: The adversarial client modes :func:`run_adversarial` speaks.
ADVERSARIAL_MODES = ("slowloris", "disconnect", "malformed",
                     "oversized", "unknown_verb", "deadline_storm")


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    Attributes:
        requests: requests issued.
        failures: requests that failed (HTTP not in {200, 503},
            connection error, or response ``status`` == ``failed``).
            Sheds and deadline misses are deliberate service answers,
            not failures.
        sheds: requests the daemon shed (503 + ``shed`` envelope).
        deadline_exceeded: requests answered ``deadline_exceeded``.
        resets: requests that died to a connection reset / broken
            socket (a subset of ``failures`` — the drain gate asserts
            this stays zero through SIGTERM).
        wall_s: wall time of the whole run in seconds.
        statuses: response-status histogram (``ok`` / ``retried`` /
            ``degraded`` / ``failed`` / ``shed`` /
            ``deadline_exceeded`` / ``http:<code>`` /
            ``error:<type>``).
        latency: latency summary of all requests
            (count/mean/min/max/p50/p90/p99, seconds).
        accepted_latency: latency summary of accepted (HTTP 200)
            requests only — what the overload baseline bounds.
    """

    requests: int = 0
    failures: int = 0
    sheds: int = 0
    deadline_exceeded: int = 0
    resets: int = 0
    wall_s: float = 0.0
    statuses: dict[str, int] = field(default_factory=dict)
    latency: dict[str, float] = field(default_factory=dict)
    accepted_latency: dict[str, float] = field(default_factory=dict)

    @property
    def rps(self) -> float:
        """Sustained throughput in requests per second."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form for reports and the smoke gates."""
        return {
            "requests": self.requests,
            "failures": self.failures,
            "sheds": self.sheds,
            "deadline_exceeded": self.deadline_exceeded,
            "resets": self.resets,
            "wall_s": round(self.wall_s, 6),
            "rps": round(self.rps, 3),
            "statuses": dict(sorted(self.statuses.items())),
            "latency": self.latency,
            "accepted_latency": self.accepted_latency,
        }


def parse_mix(text: str) -> list[str]:
    """Expand a ``verb=weight,...`` mix into a round-robin verb list.

    ``"simulate=1,evaluate=2"`` becomes
    ``["simulate", "evaluate", "evaluate"]``; workers walk this list
    round-robin by global request index, so the realised mix is
    deterministic for a given request count.
    """
    expanded: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        verb, separator, weight_text = part.partition("=")
        verb = verb.strip()
        if verb not in MIX_VERBS:
            raise ConfigurationError(
                f"unknown mix verb {verb!r}; choose from {MIX_VERBS}"
            )
        try:
            weight = int(weight_text) if separator else 1
        except ValueError:
            raise ConfigurationError(
                f"bad mix weight in {part!r}"
            )
        expanded.extend([verb] * weight)
    if not expanded:
        raise ConfigurationError(f"empty verb mix {text!r}")
    return expanded


def _build_payload(verb: str, index: int, workload: str, scale: float,
                   seed: int, axis: tuple[int, ...],
                   deadline_ms: int | None = None) -> dict[str, Any]:
    """The request payload of global request *index* (deterministic)."""
    if verb == "simulate":
        return SimulateRequest(workload, scale=scale, seed=seed,
                               deadline_ms=deadline_ms).to_json()
    if verb == "allocate":
        return AllocateRequest(
            workload, scale=scale, seed=seed,
            spm_size=axis[index % len(axis)],
            deadline_ms=deadline_ms).to_json()
    if verb == "evaluate":
        return EvaluateRequest(
            workload, scale=scale, seed=seed,
            spm_size=axis[index % len(axis)],
            deadline_ms=deadline_ms).to_json()
    assert verb == "sweep"
    return SweepRequest(workload, scale=scale, seed=seed,
                        spm_sizes=axis,
                        deadline_ms=deadline_ms).to_json()


def run_load(url: str, requests: int = 100, workers: int = 4,
             mix: str = DEFAULT_MIX, workload: str = "tiny",
             scale: float = 0.2, seed: int = 0,
             spm_sizes: tuple[int, ...] | None = None,
             timeout_s: float = 60.0,
             deadline_ms: int | None = None) -> LoadReport:
    """Drive the daemon at *url* with closed-loop workers.

    Args:
        url: daemon base URL (``http://host:port``).
        requests: total requests across all workers.
        workers: closed-loop worker threads.
        mix: verb mix spec (see :func:`parse_mix`).
        workload: workload every request names.
        scale: trip-count multiplier of every request.
        seed: executor seed of every request.
        spm_sizes: capacity axis cycled by allocate/evaluate and swept
            whole (``None`` = the workload's table-1 axis).
        timeout_s: per-request socket timeout.
        deadline_ms: optional ``deadline_ms`` stamped on every
            request (deadline storms / deadline e2e tests).

    Returns:
        The aggregated :class:`LoadReport`.
    """
    parsed = urllib.parse.urlsplit(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    verbs = parse_mix(mix)
    if spm_sizes is None:
        from repro.workloads.registry import get_workload

        spm_sizes = get_workload(workload, scale=scale).spm_sizes
    axis = tuple(spm_sizes)

    counter = itertools.count()
    lock = threading.Lock()
    histogram = Histogram()
    accepted = Histogram()
    statuses: dict[str, int] = {}
    tallies = {"failures": 0, "sheds": 0, "deadline_exceeded": 0,
               "resets": 0}

    def worker() -> None:
        connection = http.client.HTTPConnection(host, port,
                                                timeout=timeout_s)
        try:
            while True:
                index = next(counter)
                if index >= requests:
                    return
                verb = verbs[index % len(verbs)]
                payload = _build_payload(verb, index, workload, scale,
                                         seed, axis, deadline_ms)
                body = json.dumps(payload)
                started = time.perf_counter()
                failed = shed = missed = reset = was_accepted = False
                try:
                    connection.request(
                        "POST", f"/v1/{verb}", body=body,
                        headers={"Content-Type": "application/json"})
                    reply = connection.getresponse()
                    raw = reply.read()
                    elapsed = time.perf_counter() - started
                    if reply.status == 200:
                        data = json.loads(raw.decode("utf-8"))
                        label = data.get("status", "ok")
                        failed = label == "failed"
                        missed = label == "deadline_exceeded"
                        was_accepted = True
                    elif reply.status == 503:
                        data = json.loads(raw.decode("utf-8"))
                        label = data.get("status", "shed")
                        shed = label == "shed"
                        failed = not shed
                    else:
                        label = f"http:{reply.status}"
                        failed = True
                except (OSError, ValueError) as error:
                    elapsed = time.perf_counter() - started
                    label = f"error:{type(error).__name__}"
                    failed = True
                    reset = isinstance(
                        error, (ConnectionResetError,
                                BrokenPipeError,
                                ConnectionAbortedError,
                                http.client.RemoteDisconnected))
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout_s)
                with lock:
                    histogram.observe(elapsed)
                    if was_accepted:
                        accepted.observe(elapsed)
                    statuses[label] = statuses.get(label, 0) + 1
                    tallies["failures"] += failed
                    tallies["sheds"] += shed
                    tallies["deadline_exceeded"] += missed
                    tallies["resets"] += reset
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(max(1, workers))]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    def _summarise(sketch: Histogram) -> dict[str, float]:
        return {key: round(value, 6)
                for key, value in sketch.summary().items()}

    return LoadReport(requests=histogram.count,
                      failures=tallies["failures"],
                      sheds=tallies["sheds"],
                      deadline_exceeded=tallies["deadline_exceeded"],
                      resets=tallies["resets"],
                      wall_s=wall, statuses=statuses,
                      latency=_summarise(histogram),
                      accepted_latency=_summarise(accepted))


# ----------------------------------------------------------------------
# Adversarial clients
# ----------------------------------------------------------------------


def _connect(host: str, port: int, timeout_s: float) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(timeout_s)
    return sock


def _recv_status(sock: socket.socket) -> int | None:
    """The HTTP status of the next response on *sock* (or ``None``)."""
    try:
        data = b""
        while b"\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                return None
            data += chunk
        parts = data.split(b"\r\n", 1)[0].split(b" ")
        return int(parts[1]) if len(parts) > 1 else None
    except (OSError, ValueError):
        return None


def _await_close(sock: socket.socket, timeout_s: float) -> bool:
    """Whether the server closes *sock* within *timeout_s*."""
    sock.settimeout(timeout_s)
    try:
        while True:
            if not sock.recv(4096):
                return True
    except socket.timeout:
        return False
    except OSError:
        return True


def run_adversarial(url: str, mode: str, count: int = 5,
                    workload: str = "tiny", scale: float = 0.2,
                    timeout_s: float = 10.0,
                    body_bytes: int = 2 << 20,
                    deadline_ms: int = 1) -> dict[str, Any]:
    """Attack the daemon at *url* with one hostile client *mode*.

    Modes (:data:`ADVERSARIAL_MODES`):

    * ``slowloris`` — drip a request one byte at a time; the daemon's
      ``client_timeout_s`` must eventually close the connection.
    * ``disconnect`` — send a full valid request, then close without
      reading the response; the daemon must cancel the orphaned work
      (``serve.client_disconnects``).
    * ``malformed`` — invalid JSON bodies; expects structured 400s.
    * ``oversized`` — declare a ``Content-Length`` of *body_bytes*;
      expects a structured 400 before the body is ever sent.
    * ``unknown_verb`` — post to ``/v1/<nonsense>``; expects
      structured 400s.
    * ``deadline_storm`` — *count* concurrent requests with
      ``deadline_ms``, fired while a deadline-free cold sweep holds
      the executor, so every one must answer ``deadline_exceeded``
      from the queue; the tally's ``blocker`` is the sweep's status.

    Returns a per-mode tally dict (``attempts`` plus mode-specific
    counts such as ``closed_by_server`` / ``structured_400`` /
    ``deadline_exceeded``); the serve-chaos gate combines it with a
    ``/metrics`` scrape and a liveness probe.
    """
    if mode not in ADVERSARIAL_MODES:
        raise ConfigurationError(
            f"unknown adversarial mode {mode!r}; choose from "
            f"{ADVERSARIAL_MODES}"
        )
    parsed = urllib.parse.urlsplit(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    tally: dict[str, Any] = {"mode": mode, "attempts": count}

    if mode == "slowloris":
        closed = 0
        request = (f"POST /v1/evaluate HTTP/1.1\r\n"
                   f"Host: {host}\r\nContent-Length: 64\r\n\r\n")
        for _ in range(count):
            sock = _connect(host, port, timeout_s)
            try:
                for byte in request.encode("latin-1")[:24]:
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:
                        break
                    time.sleep(0.05)
                closed += _await_close(sock, timeout_s)
            finally:
                sock.close()
        tally["closed_by_server"] = closed
        return tally

    if mode == "disconnect":
        sent = 0
        payload = json.dumps(EvaluateRequest(
            workload, scale=scale).to_json())
        for _ in range(count):
            sock = _connect(host, port, timeout_s)
            try:
                request = (
                    f"POST /v1/evaluate HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                    f"{payload}")
                sock.sendall(request.encode("utf-8"))
                sent += 1
            except OSError:
                pass
            finally:
                # Vanish without reading the response.
                sock.close()
        tally["sent"] = sent
        return tally

    if mode == "oversized":
        refused = 0
        for _ in range(count):
            sock = _connect(host, port, timeout_s)
            try:
                head = (f"POST /v1/evaluate HTTP/1.1\r\n"
                        f"Host: {host}\r\n"
                        f"Content-Length: {body_bytes}\r\n\r\n")
                sock.sendall(head.encode("latin-1"))
                refused += _recv_status(sock) == 400
            except OSError:
                pass
            finally:
                sock.close()
        tally["structured_400"] = refused
        return tally

    # The remaining modes speak well-formed HTTP.
    connection = http.client.HTTPConnection(host, port,
                                            timeout=timeout_s)
    try:
        if mode in ("malformed", "unknown_verb"):
            refused = 0
            path = "/v1/evaluate" if mode == "malformed" \
                else "/v1/defragment"
            body = "{not json" if mode == "malformed" \
                else json.dumps({"workload": workload,
                                 "schema_version": 2})
            for _ in range(count):
                try:
                    connection.request(
                        "POST", path, body=body,
                        headers={"Content-Type": "application/json"})
                    reply = connection.getresponse()
                    raw = reply.read()
                    data = json.loads(raw.decode("utf-8"))
                    refused += (reply.status == 400
                                and data.get("kind") == "error.response"
                                and data.get("status") == "failed")
                except (OSError, ValueError):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=timeout_s)
            tally["structured_400"] = refused
            return tally

        assert mode == "deadline_storm"
        # Hold the executor with a deadline-free cold sweep (~0.3 s; a
        # fresh seed keeps it cold), then fire the whole storm at once:
        # every storm request queues behind the sweep and its budget
        # runs out in the queue.
        blocker = json.dumps(SweepRequest(
            "adpcm", scale=1.0,
            seed=random.randrange(1, 1 << 30)).to_json())

        def sweeps_seen() -> float:
            connection.request("GET", "/metrics")
            text = connection.getresponse().read().decode("utf-8")
            match = re.search(r"^repro_serve_requests_sweep_total (\S+)$",
                              text, re.MULTILINE)
            return float(match.group(1)) if match else 0.0

        def block() -> str:
            sweep = http.client.HTTPConnection(host, port,
                                               timeout=timeout_s)
            try:
                sweep.request("POST", "/v1/sweep", body=blocker,
                              headers={"Content-Type":
                                       "application/json"})
                return json.loads(sweep.getresponse().read())["status"]
            finally:
                sweep.close()

        before = sweeps_seen()
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            blocked = pool.submit(block)
            # The counter ticks in the event-loop step that queues the
            # sweep, so the storm arrives strictly after it.
            while not blocked.done() and sweeps_seen() <= before:
                time.sleep(0.005)
            report = run_load(url, requests=count, workers=count,
                              mix="evaluate=1", workload=workload,
                              scale=scale, timeout_s=timeout_s,
                              deadline_ms=deadline_ms)
            tally["blocker"] = blocked.result()
        tally["deadline_exceeded"] = report.deadline_exceeded
        tally["failures"] = report.failures
        tally["resets"] = report.resets
        return tally
    finally:
        connection.close()

