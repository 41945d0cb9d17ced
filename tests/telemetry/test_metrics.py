"""Tests for the metrics registry: counters, gauges, histograms, caches."""

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import Counter, Gauge, Histogram


class TestCounter:
    def test_increments(self):
        tally = Counter("events")
        tally.inc()
        tally.inc(4)
        assert tally.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("events").inc(-1)

    def test_reset(self):
        tally = Counter("events")
        tally.inc(3)
        tally.reset()
        assert tally.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        level = Gauge("depth")
        level.set(7)
        level.set(2.5)
        assert level.value == 2.5


class TestHistogramPercentiles:
    def test_empty_percentile_is_none(self):
        assert Histogram("t").percentile(50) is None

    def test_single_observation(self):
        hist = Histogram("t")
        hist.observe(42)
        assert hist.percentile(0) == 42
        assert hist.percentile(50) == 42
        assert hist.percentile(100) == 42

    def test_linear_interpolation(self):
        # Sorted sample [10, 20, 30, 40]: rank(p50) = 1.5 interpolates
        # between 20 and 30; rank(p25) = 0.75 between 10 and 20.
        hist = Histogram("t")
        for value in (40, 10, 30, 20):
            hist.observe(value)
        assert hist.percentile(50) == 25.0
        assert hist.percentile(25) == 17.5
        assert hist.percentile(0) == 10.0
        assert hist.percentile(100) == 40.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t").percentile(101)

    def test_observe_after_percentile_resorts(self):
        hist = Histogram("t")
        hist.observe(10)
        assert hist.percentile(100) == 10
        hist.observe(5)
        assert hist.percentile(0) == 5

    def test_summary_empty_is_all_zero(self):
        summary = Histogram("t").summary()
        assert summary == {
            "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_summary_fields(self):
        hist = Histogram("t")
        for value in range(1, 11):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 10.0
        assert summary["sum"] == 55.0
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["p50"] == 5.5


class TestRegistry:
    def test_fetch_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.cache("c") is registry.cache("c")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")

    def test_enumeration_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert [c.name for c in registry.counters()] == ["a", "b"]

    def test_snapshot_flattens_cumulative_metrics(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        cache = registry.cache("memo")
        cache.hit()
        cache.miss()
        registry.histogram("lat").observe(3.0)
        registry.gauge("level").set(9)
        snap = registry.snapshot()
        assert snap["counter:n"] == 2
        assert snap["cache:memo:hits"] == 1
        assert snap["cache:memo:misses"] == 1
        assert snap["hist:lat:count"] == 1
        assert snap["hist:lat:sum"] == 3.0
        # Gauges are levels, not accumulations: excluded from deltas.
        assert not any(key.startswith("gauge") for key in snap)

    def test_delta_omits_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b").inc()
        before = registry.snapshot()
        registry.counter("a").inc(3)
        delta = MetricsRegistry.delta(before, registry.snapshot())
        assert delta == {"counter:a": 3}

    def test_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1)
        registry.cache("c").miss()
        registry.reset()
        assert registry.counter("a").value == 0
        assert registry.gauge("g").value == 0.0
        assert registry.histogram("h").count == 0
        assert registry.cache("c").misses == 0


class TestCacheSnapshots:
    def test_cache_delta_reports_only_changed_caches(self):
        registry = MetricsRegistry()
        tally = registry.cache("delta")
        registry.cache("idle")
        before = registry.cache_snapshot()
        tally.hit()
        tally.miss()
        delta = registry.cache_delta(before, registry.cache_snapshot())
        assert delta == {"delta": (1, 1)}
