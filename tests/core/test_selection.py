"""Tests for repro.core.selection — the congestion game and Algorithm 2."""

import numpy as np
import pytest

from repro.core.selection.best_reply import (
    BestReplyDynamics,
    greedy_profile,
)
from repro.core.selection.congestion_game import (
    SelectionGameConfig,
    is_selection_nash,
    payoff,
    profile_utilities,
    rosenthal_potential,
    selection_counts,
)
from repro.errors import SelectionError


class TestPayoff:
    def test_eq2_alone(self):
        """The motivating example: a lone miner expects the full fee."""
        assert payoff(fee=10.0, competitors=0) == 10.0

    def test_eq2_contested(self):
        assert payoff(fee=10.0, competitors=4) == 2.0

    def test_negative_competitors_rejected(self):
        with pytest.raises(SelectionError):
            payoff(1.0, -1)


class TestPotential:
    def test_empty_profile(self):
        assert rosenthal_potential(np.array([1.0, 2.0]), np.array([0, 0])) == 0.0

    def test_harmonic_sum(self):
        # One tx with fee 6 chosen by 3 miners: 6 * (1 + 1/2 + 1/3) = 11.
        phi = rosenthal_potential(np.array([6.0]), np.array([3]))
        assert phi == pytest.approx(11.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SelectionError):
            rosenthal_potential(np.array([1.0]), np.array([1, 2]))

    def test_improving_move_raises_potential(self):
        """The Rosenthal property: a strictly improving unilateral swap
        strictly increases the potential by the same amount."""
        fees = np.array([10.0, 6.0])
        before = [(0,), (0,)]  # both on the high-fee tx
        after = [(0,), (1,)]  # second miner moves to the free one
        u_before = profile_utilities(fees, before)[1]
        u_after = profile_utilities(fees, after)[1]
        phi_before = rosenthal_potential(fees, selection_counts(2, before))
        phi_after = rosenthal_potential(fees, selection_counts(2, after))
        assert u_after > u_before
        assert phi_after - phi_before == pytest.approx(u_after - u_before)


class TestGreedyProfile:
    def test_everyone_identical(self):
        profile = greedy_profile([1.0, 9.0, 5.0], miners=4, capacity=2)
        assert len(set(profile)) == 1  # the Sec. II-B pathology
        assert profile[0] == (1, 2)  # indices of fees 9 and 5

    def test_capacity_larger_than_pool(self):
        profile = greedy_profile([3.0, 1.0], miners=2, capacity=10)
        assert profile[0] == (0, 1)


class TestBestReplyDynamics:
    def test_converges(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=1)
        outcome = dynamics.run([5.0, 3.0, 8.0, 1.0], miners=4)
        assert outcome.converged

    def test_reaches_nash(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=2)
        outcome = dynamics.run([5.0, 3.0, 8.0, 1.0, 7.0, 2.0], miners=5)
        assert is_selection_nash(np.asarray(outcome.fees), list(outcome.profile))

    def test_reaches_nash_with_sets(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=3), seed=3)
        fees = [float(f) for f in (5, 3, 8, 1, 7, 2, 9, 4, 6, 10)]
        outcome = dynamics.run(fees, miners=4)
        assert outcome.converged
        assert is_selection_nash(np.asarray(outcome.fees), list(outcome.profile))

    def test_miners_spread_over_equal_fees(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=4)
        outcome = dynamics.run([5.0] * 6, miners=6)
        assert outcome.distinct_set_count() == 6

    def test_single_dominant_fee_attracts_everyone(self):
        """The paper's worst case (Sec. VI-E2): one transaction worth more
        than everything else even when fully contested."""
        fees = [100.0, 1.0, 1.0, 1.0]
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=5).run(
            fees, miners=4
        )
        assert outcome.distinct_set_count() == 1
        assert all(chosen == (0,) for chosen in outcome.profile)

    def test_greedy_start_disperses(self):
        """Starting from the duplicated greedy profile, best replies pull
        miners apart — the mechanism that de-serializes the shard."""
        fees = [9.0, 8.0, 7.0, 6.0]
        initial = greedy_profile(fees, miners=4, capacity=1)
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=6).run(
            fees, miners=4, initial_profile=initial
        )
        assert outcome.distinct_set_count() > 1

    def test_deterministic_under_seed(self):
        config = SelectionGameConfig(capacity=2)
        a = BestReplyDynamics(config, seed=7).run([3.0, 1.0, 4.0, 1.0, 5.0], 3)
        b = BestReplyDynamics(config, seed=7).run([3.0, 1.0, 4.0, 1.0, 5.0], 3)
        assert a.profile == b.profile

    def test_utilities_positive_at_equilibrium(self):
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=8).run(
            [4.0, 9.0, 2.0], miners=3
        )
        utilities = profile_utilities(np.asarray(outcome.fees), list(outcome.profile))
        assert all(u > 0 for u in utilities)

    def test_invalid_inputs(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(), seed=9)
        with pytest.raises(SelectionError):
            dynamics.run([], miners=3)
        with pytest.raises(SelectionError):
            dynamics.run([1.0], miners=0)
        with pytest.raises(SelectionError):
            dynamics.run([-1.0], miners=1)

    def test_initial_profile_validation(self):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=10)
        with pytest.raises(SelectionError):
            dynamics.run([1.0, 2.0], miners=2, initial_profile=[(0,)])
        with pytest.raises(SelectionError):
            dynamics.run([1.0, 2.0], miners=1, initial_profile=[(5,)])

    def test_counts_match_profile(self):
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=2), seed=11).run(
            [3.0, 1.0, 4.0], miners=3
        )
        counts = outcome.counts()
        assert counts.sum() == sum(len(chosen) for chosen in outcome.profile)

    def test_complexity_moves_bounded(self):
        """The paper cites O(u * T^2) for best reply; the move count in
        practice is far below u * T."""
        fees = [float((i * 37) % 97 + 1) for i in range(50)]
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=12).run(
            fees, miners=50
        )
        assert outcome.converged
        assert outcome.moves <= 50 * 50
