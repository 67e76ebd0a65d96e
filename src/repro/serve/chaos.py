"""Serve-layer chaos gate: a hostile world against a real daemon.

Where :mod:`repro.resilience.chaos` proves the *compute* path heals
(faults in, bit-identical results out), this module proves the
*service* path survives: :func:`run_serve_chaos` boots a real
``repro serve`` daemon subprocess and subjects it to the conditions
production will — sustained overload beyond its admission limit,
slow-loris clients, mid-request disconnects, malformed and oversized
payloads, deadline storms, and finally a SIGTERM in the middle of a
loaded run.  The gate's verdict is *behavioral*, not differential:

* the daemon process never crashes and never prints a traceback;
* under ~2× overload every refusal is a structured 503 shed (zero
  hard failures, zero connection resets) while accepted-request p99
  stays under a bound;
* the shed accounting is clean — ``serve.shed.total`` equals the sum
  of the per-reason counters, and client misbehavior shows up in
  ``serve.client_disconnects`` / ``serve.client_timeouts``;
* SIGTERM drains gracefully — ``/healthz`` flips to 503, in-flight
  work completes, the load generator sees zero resets, exit code 0.

Exposed on the CLI as ``repro serve-chaos`` and in CI as
``make serve-chaos-smoke``.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.loadgen import LoadReport, run_adversarial, run_load

#: Adversarial modes the gate runs (``disconnect`` feeds the
#: client-disconnect accounting check; ``deadline_storm`` the
#: deadline path).
GATE_MODES = ("slowloris", "disconnect", "malformed", "oversized",
              "unknown_verb", "deadline_storm")

#: Default bound on accepted-request p99 under overload, in seconds.
DEFAULT_P99_LIMIT_S = 2.0

#: Default admission limit of the gate's daemon; the load generator
#: runs twice as many closed-loop workers.
DEFAULT_MAX_INFLIGHT = 4


@dataclass
class ServeChaosResult:
    """Verdict and accounting of one serve-chaos run.

    Attributes:
        ok: every gate assertion held.
        violations: human-readable description of each failed
            assertion.
        overload: the overload-phase :class:`LoadReport` as JSON.
        adversarial: per-mode tallies from :func:`run_adversarial`.
        counters: the daemon's final counter scrape (shed and
            disconnect accounting).
        drain: drain-phase observations (exit code, resets, healthz
            statuses seen after SIGTERM, ...).
        daemon_output: the daemon's combined stdout/stderr (evidence
            for the no-traceback assertion).
    """

    ok: bool = True
    violations: list[str] = field(default_factory=list)
    overload: dict[str, Any] = field(default_factory=dict)
    adversarial: dict[str, dict[str, Any]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    drain: dict[str, Any] = field(default_factory=dict)
    daemon_output: str = ""

    def fail(self, message: str) -> None:
        """Record one failed gate assertion."""
        self.ok = False
        self.violations.append(message)

    def render(self) -> str:
        """Multi-line human-readable report of the run."""
        lines = [
            "serve-chaos: "
            + ("OK (daemon survived overload, adversarial clients "
               "and drain)" if self.ok else "FAILED")
        ]
        if self.overload:
            lines.append(
                f"  overload          {self.overload.get('requests', 0)}"
                f" requests, {self.overload.get('sheds', 0)} shed, "
                f"{self.overload.get('failures', 0)} failed, "
                f"accepted p99 "
                f"{self.overload.get('accepted_latency', {}).get('p99', 0)}s"
            )
        for mode in sorted(self.adversarial):
            tally = dict(self.adversarial[mode])
            tally.pop("mode", None)
            detail = ", ".join(f"{key}={value}"
                               for key, value in sorted(tally.items()))
            lines.append(f"  {mode:<17} {detail}")
        shed_keys = [name for name in sorted(self.counters)
                     if name.startswith("serve_shed_")
                     or name.startswith("serve_client_")]
        for name in shed_keys:
            lines.append(f"  {name:<33} {self.counters[name]:g}")
        if self.drain:
            lines.append(
                f"  drain             exit={self.drain.get('exit_code')}"
                f", resets={self.drain.get('resets')}, healthz after "
                f"SIGTERM: {self.drain.get('healthz_statuses')}"
            )
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


class _Daemon:
    """One ``repro serve`` subprocess with captured output."""

    def __init__(self, args: list[str]) -> None:
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self.lines: list[str] = []
        self.url = self._await_url()
        parsed = self.url.removeprefix("http://")
        host, _, port = parsed.partition(":")
        self.host, self.port = host, int(port)
        self._reader = threading.Thread(target=self._drain_output,
                                        daemon=True)
        self._reader.start()

    def _await_url(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    "serve daemon exited before announcing: "
                    + "".join(self.lines))
            self.lines.append(line)
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                return match.group(1)
        raise RuntimeError("serve daemon never announced its URL")

    def _drain_output(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.append(line)

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def get(self, path: str, timeout_s: float = 10.0
            ) -> tuple[int | None, bytes]:
        """One GET against the daemon (status ``None`` on failure)."""
        try:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s)
            try:
                connection.request("GET", path)
                reply = connection.getresponse()
                return reply.status, reply.read()
            finally:
                connection.close()
        except OSError:
            return None, b""

    def counters(self) -> dict[str, float]:
        """Scrape ``/metrics`` counters (underscored names).

        Prometheus flattens the dotted metric names, so ``serve.shed.
        total`` comes back as ``serve_shed_total`` — dots and
        underscores are indistinguishable after the round trip, and
        the gate's checks use the underscored form throughout.
        """
        status, body = self.get("/metrics")
        if status != 200:
            return {}
        counters: dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if line.startswith("#") or " " not in line:
                continue
            metric, _, value = line.rpartition(" ")
            if metric.startswith("repro_") \
                    and metric.endswith("_total"):
                name = metric[len("repro_"):-len("_total")]
                try:
                    counters[name] = float(value)
                except ValueError:
                    continue
        return counters

    def terminate_and_wait(self, timeout_s: float = 30.0
                           ) -> int | None:
        """SIGTERM, then wait for exit; SIGKILL as a last resort."""
        if self.alive:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
            return None  # a hung drain is its own violation

    def output(self) -> str:
        return "".join(self.lines)


def _counter_like(counters: dict[str, float],
                  prefix: str) -> dict[str, float]:
    return {name: value for name, value in counters.items()
            if name.startswith(prefix)}


def run_serve_chaos(workload: str = "tiny", scale: float = 0.2,
                    requests: int = 48,
                    max_inflight: int = DEFAULT_MAX_INFLIGHT,
                    p99_limit_s: float = DEFAULT_P99_LIMIT_S,
                    adversarial_count: int = 3,
                    timeout_s: float = 60.0) -> ServeChaosResult:
    """Run the serve-layer chaos gate against a fresh daemon.

    Args:
        workload: workload every request names.
        scale: trip-count multiplier (kept small; the gate is about
            the serving tier, not the solver).
        requests: overload-phase request count.
        max_inflight: the daemon's admission limit; the overload
            phase runs ``2 * max_inflight`` closed-loop workers.
        p99_limit_s: bound on accepted-request p99 under overload.
        adversarial_count: connections per adversarial mode.
        timeout_s: client-side per-request timeout.

    Returns:
        A :class:`ServeChaosResult`; ``result.ok`` is the verdict.
    """
    result = ServeChaosResult()
    daemon = _Daemon([
        "--jobs", "1",
        "--max-inflight", str(max_inflight),
        "--client-timeout", "1.0",
        "--max-body-bytes", str(64 * 1024),
        "--drain-timeout", "15",
        "--stall-timeout", "60",
    ])
    try:
        # Warm the daemon's artifact cache so overload timing measures
        # the serving tier, not first-touch profiling.
        warmup = run_load(daemon.url, requests=4, workers=1,
                          mix="evaluate=1", workload=workload,
                          scale=scale, timeout_s=timeout_s)
        if warmup.failures:
            result.fail(f"warmup saw {warmup.failures} failures: "
                        f"{warmup.statuses}")

        # Phase 1 — sustained overload at 2x the admission limit.
        overload = run_load(
            daemon.url, requests=requests,
            workers=2 * max_inflight, mix="evaluate=2,allocate=1",
            workload=workload, scale=scale, timeout_s=timeout_s)
        result.overload = overload.to_json()
        if not daemon.alive:
            result.fail("daemon died during overload")
        if overload.failures:
            result.fail(
                f"overload saw {overload.failures} hard failures "
                f"(want structured sheds only): {overload.statuses}")
        if overload.resets:
            result.fail(f"overload saw {overload.resets} connection "
                        f"resets")
        if overload.sheds == 0:
            result.fail("overload at 2x max_inflight shed nothing — "
                        "admission control is not engaging")
        p99 = overload.accepted_latency.get("p99", 0.0)
        if p99 > p99_limit_s:
            result.fail(f"accepted-request p99 {p99:.3f}s exceeds "
                        f"{p99_limit_s}s under overload")

        # Phase 2 — adversarial clients, one mode at a time.
        for mode in GATE_MODES:
            tally = run_adversarial(
                daemon.url, mode, count=adversarial_count,
                workload=workload, scale=scale,
                timeout_s=min(timeout_s, 10.0),
                body_bytes=1 << 20, deadline_ms=1)
            result.adversarial[mode] = tally
            if not daemon.alive:
                result.fail(f"daemon died during {mode}")
                break
            if mode in ("malformed", "oversized", "unknown_verb") \
                    and tally.get("structured_400", 0) \
                    != adversarial_count:
                result.fail(
                    f"{mode}: {tally.get('structured_400', 0)}/"
                    f"{adversarial_count} answered with a "
                    f"structured 400")
            if mode == "slowloris" \
                    and tally.get("closed_by_server", 0) == 0:
                result.fail("slowloris connections were never closed "
                            "(client_timeout_s not enforced)")
            if mode == "deadline_storm":
                if tally.get("deadline_exceeded", 0) == 0:
                    result.fail("deadline storm produced no "
                                "deadline_exceeded responses")
                if tally.get("resets", 0):
                    result.fail("deadline storm saw connection resets")

        # Give disconnect-cancellation bookkeeping a beat to land.
        time.sleep(0.3)
        status, _ = daemon.get("/healthz")
        if status != 200:
            result.fail(f"healthz reports {status} after the "
                        f"adversarial phase")
        status, body = daemon.get("/readyz")
        if status != 200:
            result.fail(f"readyz reports {status} before drain")

        # Phase 3 — shed accounting must be exact.
        counters = daemon.counters()
        result.counters = {
            name: value for name, value in counters.items()
            if name.startswith("serve_")
        }
        shed_total = counters.get("serve_shed_total", 0.0)
        by_reason = sum(_counter_like(counters,
                                      "serve_shed_").values()) \
            - shed_total \
            - sum(_counter_like(counters,
                                "serve_shed_verb_").values())
        if shed_total <= 0:
            result.fail("serve.shed.total is zero after overload")
        if by_reason != shed_total:
            result.fail(
                f"shed accounting drifted: serve.shed.total="
                f"{shed_total:g} but per-reason counters sum to "
                f"{by_reason:g}")
        disconnects = counters.get("serve_client_disconnects", 0.0)
        sent = result.adversarial.get("disconnect",
                                      {}).get("sent", 0)
        if sent and disconnects == 0:
            result.fail(
                f"{sent} mid-request disconnects left no trace in "
                f"serve.client_disconnects")

        # Phase 4 — SIGTERM under load must drain, not crash.
        drain_load: dict[str, LoadReport] = {}

        def _background_load() -> None:
            drain_load["report"] = run_load(
                daemon.url, requests=6 * max_inflight,
                workers=max_inflight, mix="evaluate=1",
                workload=workload, scale=scale, timeout_s=timeout_s)

        loader = threading.Thread(target=_background_load)
        loader.start()
        time.sleep(0.3)  # let requests get in flight
        daemon.process.send_signal(signal.SIGTERM)
        healthz_statuses: list[int] = []
        probe_deadline = time.monotonic() + 30.0
        while daemon.alive and time.monotonic() < probe_deadline:
            status, _ = daemon.get("/healthz", timeout_s=1.0)
            if status is not None:
                healthz_statuses.append(status)
            time.sleep(0.02)
        exit_code = daemon.terminate_and_wait()
        loader.join(timeout=timeout_s)
        report = drain_load.get("report")
        result.drain = {
            "exit_code": exit_code,
            "healthz_statuses": healthz_statuses,
            "resets": report.resets if report else None,
            "load": report.to_json() if report else None,
        }
        if exit_code != 0:
            result.fail(f"SIGTERM drain exited {exit_code}, want 0")
        if healthz_statuses and healthz_statuses[-1] == 200:
            result.fail("healthz still 200 after SIGTERM — drain "
                        "never flipped it to 503")
        if report is None:
            result.fail("drain-phase load generator never finished")
        elif report.resets:
            result.fail(
                f"drain-phase load saw {report.resets} connection "
                f"resets (in-flight work was dropped): "
                f"{report.statuses}")
    finally:
        daemon.terminate_and_wait()
        result.daemon_output = daemon.output()

    if "Traceback" in result.daemon_output:
        result.fail("daemon printed a traceback")
    return result
