"""Tests for repro.core.selection.weighted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selection.weighted import (
    WeightedBestReply,
    is_weighted_nash,
    weighted_share,
)
from repro.errors import SelectionError


class TestWeightedShare:
    def test_alone_takes_full_fee(self):
        assert weighted_share(10.0, own_weight=2.0, load_with_self=2.0) == 10.0

    def test_proportional_split(self):
        # Two contenders with weights 1 and 3 on a 12-coin fee.
        assert weighted_share(12.0, 1.0, 4.0) == pytest.approx(3.0)
        assert weighted_share(12.0, 3.0, 4.0) == pytest.approx(9.0)

    def test_validation(self):
        with pytest.raises(SelectionError):
            weighted_share(1.0, 0.0, 1.0)
        with pytest.raises(SelectionError):
            weighted_share(1.0, 2.0, 1.0)


class TestWeightedBestReply:
    def test_converges_to_nash(self):
        outcome = WeightedBestReply().run(
            fees=[5.0, 9.0, 3.0, 7.0], weights=[1.0, 2.0, 4.0]
        )
        assert outcome.converged
        assert is_weighted_nash(outcome)

    def test_equal_weights_match_unweighted_spread(self):
        outcome = WeightedBestReply().run(
            fees=[5.0] * 4, weights=[1.0, 1.0, 1.0, 1.0]
        )
        assert outcome.distinct_transaction_count() == 4

    def test_heavy_miner_takes_the_big_fee(self):
        """A dominant miner claims the dominant fee; light miners yield."""
        outcome = WeightedBestReply().run(
            fees=[100.0, 10.0, 10.0], weights=[10.0, 1.0, 1.0]
        )
        assert is_weighted_nash(outcome)
        assert outcome.choices[0] == 0  # the whale sits on the 100-fee tx

    def test_utilities_positive(self):
        outcome = WeightedBestReply().run(
            fees=[4.0, 9.0, 2.0], weights=[1.0, 3.0, 2.0]
        )
        load = {}
        for weight, j in zip(outcome.weights, outcome.choices):
            load[j] = load.get(j, 0.0) + weight
        assert all(
            weighted_share(outcome.fees[j], weight, load[j]) > 0
            for weight, j in zip(outcome.weights, outcome.choices)
        )

    def test_initial_choices_respected_and_validated(self):
        dynamics = WeightedBestReply()
        outcome = dynamics.run([1.0, 2.0], [1.0, 1.0], initial_choices=[0, 1])
        assert outcome.converged
        with pytest.raises(SelectionError):
            dynamics.run([1.0], [1.0], initial_choices=[0, 1])
        with pytest.raises(SelectionError):
            dynamics.run([1.0], [1.0], initial_choices=[5])

    def test_input_validation(self):
        dynamics = WeightedBestReply()
        with pytest.raises(SelectionError):
            dynamics.run([], [1.0])
        with pytest.raises(SelectionError):
            dynamics.run([1.0], [])
        with pytest.raises(SelectionError):
            dynamics.run([1.0], [0.0])
        with pytest.raises(SelectionError):
            WeightedBestReply(max_rounds=0)

    @given(
        st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=1, max_size=15),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_always_reaches_nash(self, fees, weights):
        outcome = WeightedBestReply().run(fees, weights)
        assert outcome.converged
        assert is_weighted_nash(outcome)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_property_equal_game_is_special_case(self, miners):
        """With unit weights the weighted equilibrium satisfies the
        unweighted Eq. (2) Nash condition too."""
        fees = [float(3 + (i * 7) % 11) for i in range(miners + 2)]
        outcome = WeightedBestReply().run(fees, [1.0] * miners)
        from repro.core.selection.congestion_game import is_selection_nash

        profile = [(j,) for j in outcome.choices]
        assert is_selection_nash(np.asarray(fees), profile)
