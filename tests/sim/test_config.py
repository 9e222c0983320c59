"""Tests for repro.sim.config."""

import random

import pytest

from repro.errors import ConfigError
from repro.sim.config import SimulationConfig, TimingModel


class TestTimingModel:
    def test_retargeted_interval_constant(self):
        timing = TimingModel(solo_interval=60.0, retarget_interval=60.0)
        assert timing.shard_interval(1) == 60.0
        assert timing.shard_interval(9) == 60.0

    def test_fixed_difficulty_pools_hashpower(self):
        timing = TimingModel(solo_interval=60.0, retarget_interval=None)
        assert timing.shard_interval(2) == 30.0

    def test_table1_calibration(self):
        timing = TimingModel.table1()
        assert timing.shard_interval(2) == pytest.approx(109.0)
        assert timing.shard_interval(4) == pytest.approx(56.0)
        assert timing.shard_interval(7) == pytest.approx(56.0)

    def test_lane_interval_ignores_retarget(self):
        timing = TimingModel(solo_interval=60.0, retarget_interval=60.0)
        assert timing.lane_interval(2) == 30.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimingModel(solo_interval=0)
        with pytest.raises(ConfigError):
            TimingModel(retarget_interval=0)
        with pytest.raises(ConfigError):
            TimingModel(block_shape=0)
        with pytest.raises(ConfigError):
            TimingModel().shard_interval(0)
        with pytest.raises(ConfigError):
            TimingModel().lane_interval(0)

    def test_sample_interval_mean(self):
        timing = TimingModel.low_variance(interval=10.0, shape=12.0)
        rng = random.Random(1)
        samples = [timing.sample_interval(10.0, rng) for __ in range(4_000)]
        assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.05)

    def test_higher_shape_lower_variance(self):
        import statistics

        rng = random.Random(2)
        noisy = TimingModel(block_shape=1.0)
        steady = TimingModel(block_shape=48.0)
        sd_noisy = statistics.pstdev(
            noisy.sample_interval(10.0, rng) for __ in range(2_000)
        )
        sd_steady = statistics.pstdev(
            steady.sample_interval(10.0, rng) for __ in range(2_000)
        )
        assert sd_steady < sd_noisy / 3


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.block_capacity == 10
        assert config.window is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimulationConfig(block_capacity=0)
        with pytest.raises(ConfigError):
            SimulationConfig(window=0.0)
