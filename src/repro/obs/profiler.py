"""Timer-based sampling wall-clock profiler with collapsed-stack output.

Deterministic spans tell you *which stage* was slow; a sampling profiler
tells you *which code* inside the stage.  :class:`SamplingProfiler` runs
a daemon timer thread that periodically captures the main thread's stack
via :func:`sys._current_frames` — no signal handlers to clash with pool
workers, no per-call tracing overhead, and nothing at all when not
started (the CLI only constructs one under ``--profile-sample``).

Output is the collapsed-stack format consumed by any flamegraph tool
(``flamegraph.pl``, speedscope, inferno)::

    repro.cli:main;repro.core.pipeline:run_grid;... 142

Sample counts are wall-clock estimates (``samples × interval``); the
run report reconciles them against the span-derived wall times so a
drifting sampler is visible rather than silently trusted
(:func:`repro.obs.report.render_run_report`).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any

__all__ = ["DEFAULT_INTERVAL", "SamplingProfiler"]

#: Default seconds between stack samples (~200 Hz).
DEFAULT_INTERVAL = 0.005


def _collapse(frame: Any) -> str:
    """Root-first ``module:function;...`` stack for one captured frame."""
    parts: list[str] = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{frame.f_code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Samples the profiled thread's stack on a fixed wall-clock timer.

    Profiles the thread that called :meth:`start` (the CLI main thread);
    pool workers execute in other processes and are out of scope — their
    cost still shows up in the ``point.evaluate`` percentiles.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.samples: dict[str, int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_ident: int | None = None
        self._started_at = 0.0
        self.duration_s = 0.0

    def _sample(self) -> None:
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:
            return
        stack = _collapse(frame)
        self.samples[stack] = self.samples.get(stack, 0) + 1
        self.sample_count += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def start(self) -> None:
        """Begin sampling the calling thread."""
        self._target_ident = threading.get_ident()
        self._started_at = time.monotonic()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-profiler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling (idempotent).

        Takes one final sample of the profiled thread, so a run shorter
        than one interval still yields a non-empty profile.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            self._sample()
            self.duration_s = time.monotonic() - self._started_at

    def collapsed(self) -> str:
        """All samples in collapsed-stack format, highest count first."""
        ordered = sorted(self.samples.items(),
                         key=lambda item: (-item[1], item[0]))
        return "\n".join(f"{stack} {count}" for stack, count in ordered)

    def write(self, path: str) -> None:
        """Write :meth:`collapsed` output to *path*."""
        text = self.collapsed()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + ("\n" if text else ""))

    def hot_functions(self, limit: int = 5) -> list[dict[str, Any]]:
        """The *limit* most-sampled leaf functions with sample counts."""
        leaves: dict[str, int] = {}
        for stack, count in self.samples.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ordered = sorted(leaves.items(),
                         key=lambda item: (-item[1], item[0]))
        return [{"function": name, "samples": count}
                for name, count in ordered[:limit]]

    def stats(self) -> dict[str, Any]:
        """Summary embedded in the run payload for report reconciliation."""
        return {
            "samples": self.sample_count,
            "interval_s": self.interval,
            "duration_s": round(self.duration_s, 6),
            "estimated_busy_s": round(self.sample_count * self.interval, 6),
            "hot": self.hot_functions(),
        }
