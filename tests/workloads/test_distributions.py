"""Tests for repro.workloads.distributions."""

import statistics

import pytest

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    FEE_HIGH,
    FEE_LOW,
    binomial_fees,
    exponential_fees,
    random_small_shard_sizes,
    uniform_fees,
)


class TestUniformFees:
    def test_in_range(self):
        fees = uniform_fees(200, seed=1)
        assert all(FEE_LOW <= f <= FEE_HIGH for f in fees)

    def test_deterministic(self):
        assert uniform_fees(10, seed=2) == uniform_fees(10, seed=2)

    def test_count(self):
        assert len(uniform_fees(7, seed=3)) == 7
        assert uniform_fees(0, seed=3) == []

    def test_validation(self):
        with pytest.raises(WorkloadError):
            uniform_fees(-1)


class TestBinomialFees:
    def test_mean_near_half_total(self):
        fees = binomial_fees(500, total_fees=200, seed=4)
        assert statistics.mean(fees) == pytest.approx(100, rel=0.05)

    def test_bounded(self):
        fees = binomial_fees(100, total_fees=20, seed=5)
        assert all(0 <= f <= 20 for f in fees)

    def test_never_emits_zero_fee(self):
        """Property: every fee is >= 1, matching the uniform and
        exponential generators. A zero fee makes its transaction's
        selection share f_j/(n_j+1) identically zero regardless of
        congestion, silently distorting the game."""
        for seed in range(50):
            fees = binomial_fees(200, total_fees=2, seed=seed)
            assert min(fees) >= 1

    def test_zero_draws_clamp_to_one(self):
        # total_fees=1 over 2 Bernoulli trials hits raw draw 0 often;
        # the clamp must lift those to 1, never drop below.
        fees = binomial_fees(500, total_fees=1, seed=11)
        assert set(fees) <= {1}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            binomial_fees(-1)
        with pytest.raises(WorkloadError):
            binomial_fees(1, total_fees=0)


class TestExponentialFees:
    def test_positive_integers(self):
        fees = exponential_fees(200, mean=20.0, seed=6)
        assert all(isinstance(f, int) and f >= 1 for f in fees)

    def test_heavy_tail(self):
        fees = exponential_fees(2_000, mean=20.0, seed=7)
        assert max(fees) > 3 * statistics.mean(fees)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            exponential_fees(-1)
        with pytest.raises(WorkloadError):
            exponential_fees(1, mean=0.0)


class TestShardSizes:
    def test_paper_range(self):
        sizes = random_small_shard_sizes(100, seed=8)
        assert all(1 <= s <= 9 for s in sizes)

    def test_deterministic(self):
        assert random_small_shard_sizes(5, seed=9) == random_small_shard_sizes(
            5, seed=9
        )

    def test_validation(self):
        with pytest.raises(WorkloadError):
            random_small_shard_sizes(-1)
