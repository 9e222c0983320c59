"""The telemetry layer: heartbeats, shard-load accounting, imbalance.

Covers the pure pieces (gini, imbalance indices, ShardStats round-trip
through the run report and its rendering) and the integration contract:
the shard stats a finished run folds must equal the ``ProtocolResult``
counters, and the traffic matrix's row sums must account for every
classified transaction.
"""

import io
import json

import pytest

import repro.observe.telemetry as telemetry_module

from repro.consensus.miner import MinerIdentity
from repro.core.shard_formation import MAXSHARD_ID
from repro.errors import ConfigError
from repro.observe import (
    HeartbeatSample,
    RunReport,
    ShardStats,
    Telemetry,
    get_telemetry,
    gini,
    imbalance_indices,
    resolve_telemetry,
    use_telemetry,
)
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads import (
    streaming_powerlaw_contract_workload,
    uniform_contract_workload,
)


class TestGini:
    def test_empty_and_all_zero_are_perfectly_equal(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_equal_values_give_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_total_concentration_approaches_one(self):
        # One shard holds everything: G = (n-1)/n exactly.
        assert gini([0.0, 0.0, 0.0, 100.0]) == pytest.approx(3.0 / 4.0)

    def test_known_value(self):
        # Mean absolute difference of [1, 3] is 2; G = 2 / (2 * 2 * 2).
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_order_invariant(self):
        assert gini([3.0, 1.0, 2.0]) == gini([1.0, 2.0, 3.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError):
            gini([1.0, -2.0])


class TestImbalanceIndices:
    def test_uniform_load(self):
        indices = imbalance_indices([10.0, 10.0, 10.0])
        assert indices["max_over_mean"] == pytest.approx(1.0)
        assert indices["gini"] == pytest.approx(0.0)
        assert indices["shards"] == 3

    def test_hotspot_load(self):
        indices = imbalance_indices([90.0, 5.0, 5.0])
        assert indices["max_over_mean"] == pytest.approx(2.7)
        assert indices["gini"] > 0.5

    def test_empty(self):
        indices = imbalance_indices([])
        assert indices["shards"] == 0
        assert indices["max_over_mean"] == 0.0


class TestShardStats:
    def _stats(self) -> ShardStats:
        stats = ShardStats()
        hot = stats.load(1)
        hot.blocks_forged, hot.blocks_empty = 10, 1
        hot.txs_confirmed, hot.mempool_peak, hot.evictions = 90, 40, 3
        cold = stats.load(2)
        cold.blocks_forged, cold.blocks_empty = 10, 8
        cold.txs_confirmed, cold.mempool_peak = 10, 5
        stats.record_route(1, 1, 80)
        stats.record_route(1, MAXSHARD_ID, 10)
        stats.record_route(2, 2, 10)
        return stats

    def test_totals(self):
        stats = self._stats()
        assert stats.total_blocks == 20
        assert stats.total_confirmed == 100
        assert stats.maxshard_serialized == 10

    def test_imbalance_excludes_maxshard(self):
        stats = self._stats()
        stats.load(MAXSHARD_ID).txs_confirmed = 10_000
        indices = stats.imbalance()
        assert indices["shards"] == 2
        assert indices["max_over_mean"] == pytest.approx(90.0 / 50.0)

    def test_imbalance_unknown_column_rejected(self):
        with pytest.raises(ConfigError):
            self._stats().imbalance(key="nope")

    def test_round_trip(self):
        report = RunReport(title="t", shards=self._stats().as_dict())
        clone = RunReport.from_dict(json.loads(json.dumps(report.as_dict())))
        assert clone == report
        assert clone.render() == report.render()

    def test_render_mentions_matrix_and_imbalance(self):
        text = RunReport(title="t", shards=self._stats().as_dict()).render()
        assert "shards: 2 shards, 20 blocks, 100 txs confirmed" in text
        assert "traffic matrix" in text
        assert "routed=100 maxshard_serialized=10" in text
        assert "gini=" in text
        assert "max/mean=1.800" in text


class TestScope:
    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_bad_heartbeat_interval_rejected_naming_field(self, interval):
        with pytest.raises(ConfigError, match="heartbeat_interval"):
            Telemetry(heartbeat_interval=interval)

    def test_resolve_semantics(self):
        telemetry = Telemetry()
        assert resolve_telemetry(telemetry) is telemetry
        assert isinstance(resolve_telemetry(True), Telemetry)
        assert resolve_telemetry(False) is None
        assert resolve_telemetry(None) is None
        with use_telemetry(telemetry):
            assert get_telemetry() is telemetry
            assert resolve_telemetry(None) is telemetry
            # An explicit False opts out even inside a scope.
            assert resolve_telemetry(False) is None
        assert get_telemetry() is None

    def test_progress_line_writes_to_stream(self):
        sink = io.StringIO()
        telemetry = Telemetry(progress=True, stream=sink)
        telemetry.start()
        telemetry.heartbeat(
            time=10.0, injected=100, confirmed=25, evicted=0, pool_depths={1: 7}
        )
        line = sink.getvalue()
        assert "[heartbeat]" in line
        assert "injected=100" in line
        assert len(telemetry.samples) == 1
        assert isinstance(telemetry.samples[0], HeartbeatSample)

    def test_progress_prints_first_beat_then_one_line_a_second(self, monkeypatch):
        clock = [100.0]

        class FakeTime:
            @staticmethod
            def perf_counter():
                return clock[0]

        monkeypatch.setattr(telemetry_module, "_time", FakeTime)
        sink = io.StringIO()
        telemetry = Telemetry(progress=True, stream=sink)

        def beats(times):
            for t in times:
                clock[0] = t
                telemetry.heartbeat(
                    time=t, injected=1, confirmed=0, evicted=0, pool_depths={}
                )

        telemetry.start()
        beats([100.0, 100.5, 100.99, 101.0, 101.7, 102.2])
        # A second run prints its first beat however soon it comes.
        telemetry.start()
        beats([102.3, 102.4])
        printed = [
            float(line.split("t=")[1].split()[0])
            for line in sink.getvalue().splitlines()
        ]
        assert printed == [100.0, 101.0, 102.2, 102.3]
        assert len(telemetry.samples) == 8  # every beat is still sampled

    def test_heartbeat_wall_fields_stay_in_sidecar(self):
        telemetry = Telemetry()
        telemetry.start()
        telemetry.heartbeat(
            time=1.0, injected=1, confirmed=0, evicted=0, pool_depths={}
        )
        payload = telemetry.samples[0].as_dict()
        assert "wall" in payload
        assert "wall_s" in payload["wall"]
        assert "wall_s" not in {k for k in payload if k != "wall"}


def _run(telemetry, workload=None, **overrides):
    """A finished run and its shard stats."""
    miners = [MinerIdentity.create(f"t{i}") for i in range(6)]
    if workload is None:
        workload = uniform_contract_workload(
            total_txs=40, contract_shards=3, seed=7
        )
    config = ProtocolConfig(
        seed=7,
        trace=True,
        max_duration=5000.0,
        telemetry=telemetry,
        **overrides,
    )
    sim = ProtocolSimulation(miners, workload, config=config)
    result = sim.run()
    return result, sim.shard_stats()


class TestProtocolIntegration:
    def test_shard_stats_totals_match_result_counters(self):
        result, stats = _run(Telemetry(heartbeat_interval=100.0))
        assert stats.total_confirmed == result.confirmed_count()
        assert sum(e.evictions for e in stats.loads.values()) == result.evicted
        per_shard = {
            shard: entry.txs_confirmed
            for shard, entry in stats.loads.items()
            if entry.txs_confirmed
        }
        assert per_shard == {
            shard: count
            for shard, count in result.per_shard_confirmed.items()
            if count
        }

    def test_traffic_rows_account_for_every_transaction(self):
        telemetry = Telemetry(heartbeat_interval=None)
        workload = uniform_contract_workload(
            total_txs=40, contract_shards=3, seed=7
        )
        __, stats = _run(telemetry, workload=workload)
        routed = sum(sum(row.values()) for row in stats.traffic.values())
        assert routed == len(workload)
        # Uniform single-contract calls execute on their home shard:
        # the matrix is diagonal and nothing is MaxShard-serialized.
        assert stats.maxshard_serialized == 0
        for home, row in stats.traffic.items():
            assert set(row) == {home}

    def test_streaming_traffic_matches_post_hoc_classification(self):
        telemetry = Telemetry(heartbeat_interval=None)
        stream = streaming_powerlaw_contract_workload(
            total_txs=60, contract_shards=4, alpha=1.0, seed=3
        )
        __, stats = _run(
            telemetry, workload=stream, inject_batch=10, inject_interval=1.0
        )
        row_sums = {
            home: sum(row.values()) for home, row in stats.traffic.items()
        }
        assert sum(row_sums.values()) == 60
        # Home rows follow the stream's declared per-shard counts
        # (slot 0 = direct transfers homed on the MaxShard).
        assert row_sums == {
            shard: count
            for shard, count in stream.shard_counts.items()
            if count
        }

    def test_heartbeats_sampled_on_schedule(self):
        telemetry = Telemetry(heartbeat_interval=25.0)
        result, __ = _run(telemetry)
        # Interval beats plus the final snapshot.
        assert len(telemetry.samples) >= 2
        times = [sample.time for sample in telemetry.samples]
        assert times == sorted(times)
        assert times[-1] == result.duration
        final = telemetry.samples[-1]
        assert final.confirmed == result.confirmed_count()

    def test_disabled_telemetry_costs_no_result_surface(self):
        # The result carries no telemetry; the fold needs none.
        result, stats = _run(False)
        assert not hasattr(result, "shard_stats")
        assert stats.total_confirmed == result.confirmed_count()
