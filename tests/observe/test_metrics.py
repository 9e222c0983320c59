"""Tests for repro.observe.metrics and the report's metrics fold."""

import json

import pytest

from repro.errors import ConfigError
from repro.observe import Histogram, RunReport
from repro.observe.report import METRICS


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


def _record(seq, name, time=None, wall=None, **attrs):
    payload = {"seq": seq, "name": name, "attrs": attrs}
    if time is not None:
        payload["time"] = time
    if wall is not None:
        payload["wall"] = wall
    return payload


class TestMetricsFold:
    def test_kinds_and_names(self):
        kinds = {kind: sum(k == kind for k, *_ in METRICS.values())
                 for kind in ("counters", "gauges", "histograms")}
        assert kinds == {"counters": 10, "gauges": 4, "histograms": 4}

    def test_counters_gauges_and_histograms_fold_from_records(self):
        report = RunReport.from_payloads([
            _record(0, "block.forged", txs=0, empty=True),
            _record(1, "block.forged", txs=4, empty=False),
            _record(2, "leader.timeout", fallbacks=0),
            _record(3, "run.complete", time=9.5, confirmed=4,
                    wall={"events_fired": 30, "peak_pending": 3}),
            _record(4, "run.complete", time=12.0, confirmed=6),
        ])
        assert report.metrics["counters"] == {
            "protocol.blocks_empty": 1,
            "protocol.blocks_forged": 2,
            "protocol.leader_fallbacks": 0,
        }
        # Last write wins; the second record has no wall sidecar.
        assert report.metrics["gauges"] == {
            "protocol.confirmed": 6,
            "protocol.duration_sim_s": 12.0,
            "protocol.events_fired": 30,
            "scheduler.peak_pending": 3,
        }
        block_txs = report.metrics["histograms"]["protocol.block_txs"]
        assert (block_txs["count"], block_txs["total"]) == (2, 4.0)

    def test_records_without_the_value_feed_nothing(self):
        report = RunReport.from_payloads([
            _record(0, "block.forged"),
            _record(1, "selection.converged", moves="many"),
            _record(2, "unrelated", txs=3),
        ])
        assert report.metrics == {
            "counters": {"protocol.blocks_forged": 1},
            "gauges": {},
            "histograms": {},
        }
        assert RunReport.from_payloads([_record(0, "a")]).metrics is None

    def test_snapshot_is_deterministic_and_json_ready(self):
        payloads = [_record(0, "executor.map", tasks=3),
                    _record(1, "merge.result", rounds=2)]
        folded = RunReport.from_payloads(payloads).metrics
        assert folded == RunReport.from_payloads(payloads).metrics
        assert folded["counters"] == {"runtime.maps": 1, "runtime.tasks": 3}
        assert folded["histograms"]["merging.rounds_per_run"]["count"] == 1
        json.dumps(folded)  # must serialize cleanly

    def test_render_mentions_every_metric(self):
        metrics = RunReport.from_payloads([
            _record(0, "block.forged", txs=4),
            _record(1, "run.complete", time=2.5, confirmed=1),
        ]).metrics
        rendered = RunReport(title="t", metrics=metrics).render()
        assert "protocol.blocks_forged = 1" in rendered
        assert "protocol.duration_sim_s = 2.5" in rendered
        assert "protocol.block_txs: n=1" in rendered and "p99=4.000" in rendered

    def test_render_empty(self):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        report = RunReport(title="t", metrics=empty)
        assert report.render() == "[t]\nmetrics:"
