"""Tests for repro.core.security (Sec. III-B, IV-D)."""

import math

import numpy as np
import pytest

from repro.core import security
from repro.errors import ReproError


def empirical_shard_corruption(miners, adversary_fraction, trials, seed):
    """Monte-Carlo cross-check of ``shard_corruption_probability``.

    Samples ``trials`` random shard compositions and counts the ones
    whose malicious share exceeds the PoW threshold.
    """
    rng = np.random.default_rng(seed)
    malicious = rng.binomial(miners, adversary_fraction, size=trials)
    cutoff = math.floor(security.POW_THRESHOLD * miners)
    return float(np.mean(malicious > cutoff))


class TestShardSafety:
    def test_safety_plus_corruption_is_one(self):
        for n in (10, 30, 50):
            total = security.shard_safety(n, 0.25) + (
                security.shard_corruption_probability(n, 0.25)
            )
            assert total == pytest.approx(1.0)

    def test_bigger_shards_are_safer(self):
        """Fig. 1(d): 'a shard with more miners is harder to be corrupted'."""
        safeties = [security.shard_safety(n, 0.33) for n in (21, 41, 81)]
        assert safeties[0] < safeties[1] < safeties[2]

    def test_weaker_adversary_safer(self):
        assert security.shard_safety(30, 0.25) > security.shard_safety(30, 0.33)

    def test_paper_caption_claim(self):
        """'Given a 33% attack in a shard with 30 miners, the probability
        to corrupt the system is almost 0.'"""
        assert security.shard_corruption_probability(30, 0.33) < 0.05

    def test_zero_adversary_perfectly_safe(self):
        assert security.shard_safety(10, 0.0) == 1.0

    def test_bft_threshold_is_stricter(self):
        pow_safety = security.shard_safety(30, 0.25, security.POW_THRESHOLD)
        bft_safety = security.shard_safety(30, 0.25, security.BFT_THRESHOLD)
        assert bft_safety < pow_safety

    def test_input_validation(self):
        with pytest.raises(ReproError):
            security.shard_safety(0, 0.25)
        with pytest.raises(ReproError):
            security.shard_safety(10, 1.0)

    def test_fig1d_curves_shape(self):
        curves = security.fig1d_curves(range(20, 101, 20))
        assert set(curves) == {0.25, 0.33}
        assert all(len(v) == 5 for v in curves.values())

    def test_matches_monte_carlo(self):
        closed = security.shard_corruption_probability(15, 0.33)
        empirical = empirical_shard_corruption(
            15, 0.33, trials=40_000, seed=1
        )
        assert empirical == pytest.approx(closed, abs=0.01)


class TestGeometricSum:
    def test_finite_rounds(self):
        assert security.geometric_adversary_sum(0.5, rounds=2) == pytest.approx(1.75)

    def test_infinite_limit(self):
        assert security.geometric_adversary_sum(0.25) == pytest.approx(4.0 / 3.0)

    def test_zero_adversary(self):
        assert security.geometric_adversary_sum(0.0, rounds=5) == 1.0
        assert security.geometric_adversary_sum(0.0) == 1.0

    def test_negative_rounds_rejected(self):
        with pytest.raises(ReproError):
            security.geometric_adversary_sum(0.25, rounds=-1)


class TestEq3:
    def test_paper_magnitude(self):
        """Eq. (3) with a 25% adversary: failure ~ 8e-6 (same order)."""
        p_s = security.shard_safety(60, 0.25)
        failure = security.merging_failure_probability(0.25, p_s)
        assert 1e-6 < failure < 1e-4

    def test_monotone_in_adversary(self):
        p_s = security.shard_safety(60, 0.25)
        weak = security.merging_failure_probability(0.10, p_s)
        strong = security.merging_failure_probability(0.30, p_s)
        assert weak < strong

    def test_perfect_shard_never_fails(self):
        assert security.merging_failure_probability(0.25, 1.0) == 0.0

    def test_invalid_ps_rejected(self):
        with pytest.raises(ReproError):
            security.merging_failure_probability(0.25, 1.5)


class TestEq4:
    def test_pmf_sums_to_one(self):
        total = sum(security.fee_probability(t, 20) for t in range(21))
        assert total == pytest.approx(1.0)

    def test_out_of_range_is_zero(self):
        assert security.fee_probability(-1, 10) == 0.0
        assert security.fee_probability(11, 10) == 0.0

    def test_symmetric_around_half(self):
        assert security.fee_probability(4, 10) == pytest.approx(
            security.fee_probability(6, 10)
        )

    def test_invalid_total_rejected(self):
        with pytest.raises(ReproError):
            security.fee_probability(1, 0)


class TestEq5:
    def test_majority_corruption_decreases_with_validators(self):
        few = security.transaction_corruption_probability(5, 0.25)
        many = security.transaction_corruption_probability(51, 0.25)
        assert many < few

    def test_single_validator(self):
        # One validator: corrupted iff she is malicious (> floor(1/2) = 0).
        assert security.transaction_corruption_probability(1, 0.25) == pytest.approx(
            0.25
        )

    def test_invalid_inputs(self):
        with pytest.raises(ReproError):
            security.transaction_corruption_probability(0, 0.25)


class TestEq6:
    def test_paper_magnitude(self):
        """Eq. (6) at 25%, 200 fees: ~7e-7 (same order)."""
        value = security.selection_corruption_probability(
            0.25, total_fees=200, total_miners=160
        )
        assert 1e-8 < value < 1e-5

    def test_monotone_in_adversary(self):
        weak = security.selection_corruption_probability(0.10, 200, 160)
        strong = security.selection_corruption_probability(0.30, 200, 160)
        assert weak < strong

    def test_33_percent_resilience(self):
        """The headline: both failure probabilities stay negligible for
        adversaries up to 33%."""
        p_s = security.shard_safety(100, 0.33)
        merging = security.merging_failure_probability(0.33, p_s)
        selection = security.selection_corruption_probability(0.33, 200, 300)
        assert merging < 1e-2
        assert selection < 1e-2


class TestMinimumSafeShardSize:
    def test_returns_size_meeting_target(self):
        size = security.minimum_safe_shard_size(0.25, target_safety=0.999)
        assert security.shard_safety(size, 0.25) >= 0.999

    def test_stronger_adversary_needs_bigger_shards(self):
        weak = security.minimum_safe_shard_size(0.20, 0.999)
        strong = security.minimum_safe_shard_size(0.33, 0.999)
        assert strong > weak

    def test_unreachable_target_raises(self):
        with pytest.raises(ReproError):
            security.minimum_safe_shard_size(0.49, 1.0 - 1e-12, max_size=50)
