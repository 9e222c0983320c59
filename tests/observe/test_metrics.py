"""Tests for repro.observe.metrics."""

import pytest

from repro.errors import ConfigError
from repro.observe import Counter, Gauge, Histogram, MetricsRegistry, RunReport


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = Counter("c")
        c.inc()
        c.inc(2)
        assert c.value == 3

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigError, match="cannot decrease"):
            Counter("c").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(4.0)
        g.set(2.5)
        assert g.value == 2.5


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("h")
        for v in (1, 2, 3, 4, 10):
            h.observe(v)
        assert h.count == 5
        assert h.total == 20.0
        assert h.mean == 4.0
        assert h.minimum == 1.0
        assert h.maximum == 10.0

    def test_empty_histogram_is_all_zero(self):
        h = Histogram("h")
        assert h.summary() == {
            "count": 0,
            "total": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_nearest_rank_percentiles_are_exact_samples(self):
        h = Histogram("h")
        for v in range(1, 101):  # 1..100
            h.observe(v)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(50.0) == 50.0  # ceil(0.5 * 100) = rank 50
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(100.0) == 100.0
        # Every result is one of the observed samples.
        for p in (1, 33.3, 66.6, 97.5):
            assert h.percentile(p) in h.samples

    def test_percentile_single_sample(self):
        h = Histogram("h")
        h.observe(42.0)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert h.percentile(p) == 42.0

    def test_percentile_empty_returns_zero(self):
        h = Histogram("h")
        assert h.percentile(99.0) == 0.0
        assert h.percentiles((50.0, 99.0)) == {50.0: 0.0, 99.0: 0.0}

    def test_percentile_with_ties(self):
        h = Histogram("h")
        for v in (5.0, 5.0, 5.0, 5.0, 9.0):
            h.observe(v)
        assert h.percentile(50.0) == 5.0
        assert h.percentile(80.0) == 5.0  # rank 4 of 5 is still the tie
        assert h.percentile(81.0) == 9.0
        assert h.percentile(99.0) == 9.0

    def test_percentiles_batch_matches_single_calls(self):
        h = Histogram("h")
        for v in (3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0):
            h.observe(v)
        batch = h.percentiles((0.0, 50.0, 95.0, 99.0, 100.0))
        for p, value in batch.items():
            assert value == h.percentile(p)

    def test_percentile_validation(self):
        with pytest.raises(ConfigError):
            Histogram("h").percentile(101.0)
        with pytest.raises(ConfigError):
            Histogram("h").percentiles([-1.0])

    @pytest.mark.parametrize("top", [4, 100])
    def test_summary_percentiles_are_nearest_rank(self, top):
        h = Histogram("h")
        for v in range(1, top + 1):
            h.observe(v)
        summary = h.summary()
        for p in (50, 95, 99):
            assert summary[f"p{p}"] == h.percentile(p)
        assert summary["p50"] == top / 2  # 2.0 on 1..4, 50.0 on 1..100

    def test_summary_includes_p99(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        assert h.summary()["p99"] == 99.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3

    def test_type_shadowing_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError, match="already registered as a counter"):
            reg.gauge("x")
        with pytest.raises(ConfigError, match="already registered as a counter"):
            reg.histogram("x")

    def test_snapshot_is_deterministic_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("z.count").inc(3)
        reg.gauge("a.level").set(1.5)
        reg.histogram("m.samples").observe(2)
        snap = reg.snapshot()
        assert snap["counters"] == {"z.count": 3}
        assert snap["gauges"] == {"a.level": 1.5}
        assert snap["histograms"]["m.samples"]["count"] == 1
        json.dumps(snap)  # must serialize cleanly

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("blocks").inc()
        reg.gauge("depth").set(2.5)
        reg.histogram("rounds").observe(4)
        rendered = RunReport(title="t", metrics=reg.snapshot()).render()
        assert "blocks = 1" in rendered
        assert "depth = 2.5" in rendered
        assert "rounds: n=1" in rendered and "p99=4.000" in rendered

    def test_render_empty(self):
        report = RunReport(title="t", metrics=MetricsRegistry().snapshot())
        assert report.render() == "[t]\nmetrics:"
