"""Sampling profiler: collapsed stacks, hot functions, stats."""

from __future__ import annotations

import time

from repro.obs.profiler import SamplingProfiler, _collapse


def _busy_wait(seconds: float) -> float:
    """Spin (not sleep) so the sampler catches this frame on-CPU."""
    deadline = time.monotonic() + seconds
    total = 0.0
    while time.monotonic() < deadline:
        total += sum(range(200))
    return total


class TestSamplingProfiler:
    def test_captures_hot_frames(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        _busy_wait(0.2)
        profiler.stop()
        assert profiler.sample_count > 10
        collapsed = profiler.collapsed()
        assert "_busy_wait" in collapsed
        # Root-first stacks: the test module appears before the leaf.
        hot_line = next(line for line in collapsed.splitlines()
                        if "_busy_wait" in line)
        stack, count = hot_line.rsplit(" ", 1)
        assert int(count) >= 1
        assert stack.index("test_obs_profiler") \
            < stack.index("_busy_wait")
        hot = profiler.hot_functions()
        assert any("_busy_wait" in entry["function"] for entry in hot)

    def test_stats_reconcile_with_duration(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        _busy_wait(0.1)
        profiler.stop()
        stats = profiler.stats()
        assert stats["samples"] == profiler.sample_count
        assert stats["interval_s"] == 0.001
        assert stats["duration_s"] > 0
        assert stats["estimated_busy_s"] <= stats["duration_s"] * 2
        assert stats["hot"]

    def test_stop_is_idempotent_and_write_emits_file(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        _busy_wait(0.05)
        profiler.stop()
        profiler.stop()
        path = tmp_path / "profile.txt"
        profiler.write(str(path))
        text = path.read_text()
        assert text.strip(), "collapsed-stack output must be non-empty"
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack or ":" in stack
            assert int(count) > 0

    def test_stop_takes_a_final_sample(self):
        # A run shorter than one interval still records where it was.
        profiler = SamplingProfiler(interval=60)
        profiler.start()
        profiler.stop()
        assert profiler.sample_count >= 1
        assert "test_stop_takes_a_final_sample" in profiler.collapsed()

    def test_empty_profiler_writes_empty_file(self, tmp_path):
        profiler = SamplingProfiler()
        path = tmp_path / "empty.txt"
        profiler.write(str(path))
        assert path.read_text() == ""
        assert profiler.stats()["samples"] == 0

    def test_collapse_formats_module_and_function(self):
        import sys
        frame = sys._getframe()
        collapsed = _collapse(frame)
        assert collapsed.endswith(
            "test_obs_profiler:test_collapse_formats_module_and_function")
