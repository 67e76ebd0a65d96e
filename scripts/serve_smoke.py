#!/usr/bin/env python
"""Smoke gate of the ``repro serve`` daemon (``make serve-smoke``).

Spawns the daemon as a real subprocess on an ephemeral port, drives it
with a closed-loop mixed-verb load-generation run, and asserts the
service-level objectives:

* **zero failed requests** across the whole run;
* **p99 latency** under a generous bound (order-of-magnitude guard,
  not a micro-benchmark);
* the micro-batcher actually **coalesced** concurrent requests
  (scraped from ``/metrics``);
* ``/healthz`` reports healthy after the burst.

The deterministic half of the gate — the recorded ``serve.*`` bench
row against ``benchmarks/baselines/smoke.jsonl`` — runs separately via
``repro bench compare`` (invoked by the ``serve-smoke`` make target).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Requests the gate fires at the daemon.
SMOKE_REQUESTS = 500

#: Closed-loop workers driving the daemon.
SMOKE_WORKERS = 4

#: p99 latency bound in seconds (order-of-magnitude guard: typical
#: tiny-workload p99 is a few milliseconds).
P99_BOUND_S = 2.0


def _get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=30)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        return reply.status, reply.read()
    finally:
        connection.close()


def _scrape_counter(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)}\s+([0-9.e+-]+)$", text,
                      re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def main() -> int:
    """Run the smoke gate; returns the process exit code."""
    from repro.serve.loadgen import run_load

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(REPO_ROOT / "src"),
                          env.get("PYTHONPATH")) if part)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=REPO_ROOT, env=env,
    )
    try:
        line = daemon.stdout.readline()
        match = re.search(r"serving on (http://[\d.]+:(\d+))",
                          line or "")
        if match is None:
            print(f"FAIL: daemon did not announce a URL "
                  f"(got {line!r})")
            return 1
        url, port = match.group(1), int(match.group(2))
        print(f"daemon up at {url}")

        started = time.perf_counter()
        report = run_load(url, requests=SMOKE_REQUESTS,
                          workers=SMOKE_WORKERS, workload="tiny",
                          scale=0.2)
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))

        failures = []
        if report.failures:
            failures.append(
                f"{report.failures} failed request(s)")
        if report.requests != SMOKE_REQUESTS:
            failures.append(
                f"issued {report.requests} != {SMOKE_REQUESTS}")
        p99 = report.latency.get("p99", float("inf"))
        if p99 > P99_BOUND_S:
            failures.append(f"p99 {p99:.3f}s over {P99_BOUND_S}s")

        status, body = _get(port, "/metrics")
        text = body.decode("utf-8")
        if status != 200:
            failures.append(f"/metrics returned {status}")
        coalesced = _scrape_counter(
            text, "repro_serve_batch_coalesced_total")
        if coalesced <= 0:
            failures.append("micro-batcher never coalesced")
        handled = _scrape_counter(
            text, "repro_serve_requests_total_total")
        if handled < SMOKE_REQUESTS:
            failures.append(
                f"daemon counted {handled:g} < {SMOKE_REQUESTS}")

        status, body = _get(port, "/healthz")
        if status != 200 or not json.loads(body).get("healthy"):
            failures.append(f"/healthz unhealthy ({status})")

        wall = time.perf_counter() - started
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(f"serve-smoke OK: {SMOKE_REQUESTS} requests, "
              f"0 failures, p99 {p99 * 1e3:.1f}ms, "
              f"{coalesced:g} coalesced, {wall:.1f}s wall")
        return 0
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.kill()


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
