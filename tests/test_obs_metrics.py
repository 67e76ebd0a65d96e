"""Metrics: counters, gauges, histograms, the registry, merging and
the Prometheus rendering."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    inc,
    metrics_enabled,
    observe,
    render_prometheus,
    set_gauge,
    set_registry,
)


@pytest.fixture
def registry():
    """A registry installed as the active one, restored afterwards."""
    active = MetricsRegistry()
    previous = set_registry(active)
    yield active
    set_registry(previous)


class TestPrimitives:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.snapshot() == {"type": "counter", "value": 3.5}

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(4.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        assert gauge.snapshot()["type"] == "gauge"

    def test_histogram(self):
        histogram = Histogram()
        for value in (2.0, 8.0, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 15.0
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0
        assert histogram.mean == 5.0

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] == 0.0 and snapshot["max"] == 0.0
        assert Histogram().mean == 0.0


class TestPercentiles:
    """Log-bucket percentile sketches: accuracy, merging, edge cases."""

    def test_empty_percentile_is_zero(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.percentile(0.99) == 0.0

    def test_single_value_all_quantiles(self):
        histogram = Histogram()
        histogram.observe(3.7)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.percentile(q) == pytest.approx(3.7)

    def test_zeros_and_negatives_land_in_zero_bucket(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(-2.0)
        histogram.observe(10.0)
        # Two of three observations are <= 0, so the median is the
        # non-positive bucket's representative (the recorded minimum).
        assert histogram.percentile(0.5) == -2.0
        assert histogram.percentile(1.0) == pytest.approx(10.0, rel=0.1)

    def test_percentile_accuracy_within_bucket_resolution(self):
        rng = random.Random(20260808)
        histogram = Histogram()
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(5000)]
        for value in values:
            histogram.observe(value)
        values.sort()
        for q in (0.5, 0.9, 0.99):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            approx = histogram.percentile(q)
            # Buckets are log-spaced at base 2**(1/8) (~9% wide); the
            # geometric-midpoint estimate stays within one bucket.
            assert abs(approx - exact) / exact < 0.10

    def test_percentiles_clamped_to_observed_range(self):
        histogram = Histogram()
        histogram.observe(5.0)
        histogram.observe(5.1)
        assert histogram.percentile(0.0) >= 5.0
        assert histogram.percentile(1.0) <= 5.1

    def test_merge_of_shards_is_exact(self):
        """Merging shard snapshots must equal a single-pass histogram."""
        rng = random.Random(7)
        values = [rng.expovariate(1.0) for _ in range(2000)] + [0.0, 0.0]
        whole = Histogram()
        shards = [Histogram() for _ in range(4)]
        for index, value in enumerate(values):
            whole.observe(value)
            shards[index % 4].observe(value)
        merged = Histogram()
        for shard in shards:
            merged.merge(shard.snapshot())
        ours, theirs = merged.snapshot(), whole.snapshot()
        # total is a float sum, so summation order costs one ulp;
        # everything feeding the percentile sketch must match exactly.
        assert ours.pop("total") == pytest.approx(theirs.pop("total"))
        assert ours == theirs
        for q in (0.5, 0.9, 0.99):
            assert merged.percentile(q) == whole.percentile(q)

    def test_merge_order_does_not_matter(self):
        a, b = Histogram(), Histogram()
        for value in (0.1, 1.0, 10.0):
            a.observe(value)
        for value in (0.5, 5.0):
            b.observe(value)
        ab = Histogram()
        ab.merge(a.snapshot())
        ab.merge(b.snapshot())
        ba = Histogram()
        ba.merge(b.snapshot())
        ba.merge(a.snapshot())
        assert ab.snapshot() == ba.snapshot()

    def test_merge_tolerates_legacy_snapshot_without_buckets(self):
        """Old payloads lack zeros/buckets; merge must not crash."""
        target = Histogram()
        target.observe(2.0)
        legacy = {
            "type": "histogram",
            "count": 3,
            "total": 9.0,
            "min": 1.0,
            "max": 5.0,
        }
        target.merge(legacy)
        assert target.count == 4
        assert target.total == 11.0
        # Percentiles still answer (from the buckets that do exist).
        assert target.percentile(0.99) >= 1.0

    def test_summary_keys(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert set(summary) == {
            "count",
            "total",
            "mean",
            "min",
            "max",
            "p50",
            "p90",
            "p99",
        }
        assert summary["count"] == 3
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_snapshot_contains_buckets(self):
        histogram = Histogram()
        histogram.observe(4.0)
        snapshot = histogram.snapshot()
        assert snapshot["zeros"] == 0
        assert len(snapshot["buckets"]) == 1

    def test_registry_counters_view(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(1.0)
        assert registry.counters() == {"c": 2.0}

    def test_render_shows_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.5)
        assert "p50" in registry.render()


class TestRegistry:
    def test_create_on_first_use_and_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("ilp.solves")
        counter.inc()
        assert registry.counter("ilp.solves") is counter
        assert registry.value("ilp.solves") == 1.0

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_value_default_for_missing_metric(self):
        assert MetricsRegistry().value("nope", default=7.0) == 7.0

    def test_value_of_histogram_is_total(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(2.0)
        registry.histogram("h").observe(3.0)
        assert registry.value("h") == 5.0

    def test_names_and_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert registry.names() == ["alpha", "zeta"]
        assert list(registry.snapshot()) == ["alpha", "zeta"]

    def test_merge_semantics(self):
        source = MetricsRegistry()
        source.counter("c").inc(2)
        source.gauge("g").set(9.0)
        source.histogram("h").observe(4.0)
        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.gauge("g").set(1.0)
        target.histogram("h").observe(10.0)
        target.merge(source.snapshot())
        assert target.value("c") == 3.0
        assert target.value("g") == 9.0  # last write wins
        histogram = target.histogram("h")
        assert histogram.count == 2
        assert histogram.total == 14.0
        assert histogram.minimum == 4.0
        assert histogram.maximum == 10.0

    def test_merge_empty_histogram_is_noop(self):
        target = MetricsRegistry()
        target.merge({"h": Histogram().snapshot()})
        assert target.histogram("h").count == 0
        assert target.histogram("h").minimum == float("inf")

    def test_merge_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge({"x": {"type": "summary"}})

    def test_render_lists_metrics(self):
        registry = MetricsRegistry()
        registry.counter("graph.builds").inc(3)
        registry.histogram("h").observe(1.5)
        rendered = registry.render()
        assert "graph.builds" in rendered
        assert "count=1" in rendered
        assert MetricsRegistry().render() == "metrics: (none recorded)"

    def test_pickle_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(3.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
        clone.counter("c").inc()  # fresh lock: still usable
        assert clone.value("c") == 5.0


class TestModuleHelpers:
    def test_disabled_helpers_are_noops(self):
        assert active_registry() is None
        assert not metrics_enabled()
        inc("ignored")
        set_gauge("ignored", 1.0)
        observe("ignored", 1.0)

    def test_helpers_write_to_active_registry(self, registry):
        assert metrics_enabled()
        inc("c")
        inc("c", 2.0)
        set_gauge("g", 5.0)
        observe("h", 2.5)
        assert registry.value("c") == 3.0
        assert registry.value("g") == 5.0
        assert registry.histogram("h").count == 1

    def test_set_registry_returns_previous(self):
        first = MetricsRegistry()
        previous = set_registry(first)
        try:
            assert set_registry(None) is first
        finally:
            set_registry(previous)


class TestPrometheusRender:
    def test_summaries_and_counters(self):
        registry = MetricsRegistry()
        registry.histogram("point.evaluate.seconds").observe(0.5)
        registry.counter("engine.cache.hits").inc(3)
        text = render_prometheus(registry)
        assert "# TYPE repro_point_evaluate_seconds summary" in text
        assert 'repro_point_evaluate_seconds{quantile="0.99"} 0.5' in text
        assert "repro_point_evaluate_seconds_sum 0.5" in text
        assert "repro_point_evaluate_seconds_count 1" in text
        assert "# TYPE repro_engine_cache_hits_total counter" in text
        assert "repro_engine_cache_hits_total 3" in text

    def test_gauges_render_and_other_histograms_do_not(self):
        registry = MetricsRegistry()
        registry.gauge("serve.inflight").set(2)
        registry.histogram("ilp.nodes").observe(7)
        registry.histogram("idle.seconds")  # empty: no summary
        text = render_prometheus(registry)
        assert "# TYPE repro_serve_inflight gauge" in text
        assert "repro_serve_inflight 2" in text
        assert "ilp_nodes" not in text
        assert "idle" not in text

    def test_empty_registry_renders_no_samples(self):
        assert render_prometheus(MetricsRegistry()).strip() == ""
