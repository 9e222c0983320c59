"""Property-based tests on the game-theoretic core (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merging.algorithm import IterativeMerging, OneTimeMerge
from repro.core.merging.equilibrium import expected_payoffs, is_pure_nash
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics
from repro.core.selection.congestion_game import (
    SelectionGameConfig,
    is_selection_nash,
    rosenthal_potential,
    selection_counts,
)

MERGE_CONFIG = MergingGameConfig(
    shard_reward=10.0, lower_bound=10, subslots=8, max_slots=120
)

sizes_strategy = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12)
fees_strategy = st.lists(
    st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


def players_of(sizes):
    return [ShardPlayer(i, s, 2.0) for i, s in enumerate(sizes, start=1)]


class TestMergingProperties:
    @given(sizes_strategy, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_one_time_merge_invariants(self, sizes, seed):
        players = players_of(sizes)
        outcome = OneTimeMerge(MERGE_CONFIG, seed=seed).run(players)
        # Probabilities clamped, partition exact, size accounting correct.
        floor = MERGE_CONFIG.probability_floor
        assert all(floor <= p <= 1 - floor for p in outcome.probabilities)
        merged = set(outcome.merged_shards)
        assert merged <= {p.shard_id for p in players}
        assert len(merged) == len(outcome.merged_shards)
        assert outcome.merged_size == sum(
            p.size for p in players if p.shard_id in merged
        )
        # Satisfaction flag is consistent with the constraint.
        assert outcome.satisfied == (outcome.merged_size >= MERGE_CONFIG.lower_bound)
        # If the population can satisfy (1), the realization does.
        if sum(sizes) >= MERGE_CONFIG.lower_bound:
            assert outcome.satisfied

    @given(sizes_strategy, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_iterative_merging_invariants(self, sizes, seed):
        players = players_of(sizes)
        result = IterativeMerging(MERGE_CONFIG, seed=seed).run(players)
        # Every formed shard satisfies the bound; players conserved.
        assert all(o.merged_size >= MERGE_CONFIG.lower_bound for o in result.new_shards)
        merged_ids = [sid for o in result.new_shards for sid in o.merged_shards]
        leftover_ids = [p.shard_id for p in result.leftover_players]
        assert sorted(merged_ids + leftover_ids) == sorted(
            p.shard_id for p in players
        )
        # Leftovers genuinely cannot form another shard.
        leftover_total = sum(p.size for p in result.leftover_players)
        assert (
            leftover_total < MERGE_CONFIG.lower_bound
            or len(result.leftover_players) < 2
            or not result.new_shards  # dynamics gave up honestly
        )

    @given(
        sizes_strategy,
        st.lists(st.booleans(), min_size=1, max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_payoff_table_bounds(self, sizes, raw_profile):
        players = players_of(sizes)
        profile = (raw_profile * len(players))[: len(players)]
        payoffs = expected_payoffs(players, profile, MERGE_CONFIG)
        G = MERGE_CONFIG.shard_reward
        for player, merges, payoff in zip(players, profile, payoffs):
            assert -player.cost <= payoff <= G
            if not merges:
                assert payoff in (0.0, G)

    @given(sizes_strategy)
    @settings(max_examples=30, deadline=None)
    def test_all_stay_is_nash_unless_a_loner_suffices(self, sizes):
        players = players_of(sizes)
        profile = [False] * len(players)
        loner_suffices = any(s >= MERGE_CONFIG.lower_bound for s in sizes)
        assert is_pure_nash(players, profile, MERGE_CONFIG) == (not loner_suffices)


class TestSelectionProperties:
    @given(
        fees_strategy,
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_best_reply_reaches_nash(self, fees, miners, seed):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=1), seed=seed)
        outcome = dynamics.run(fees, miners=miners)
        assert outcome.converged
        assert is_selection_nash(np.asarray(outcome.fees), list(outcome.profile))

    @given(
        fees_strategy,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_set_selection_invariants(self, fees, miners, capacity, seed):
        dynamics = BestReplyDynamics(SelectionGameConfig(capacity=capacity), seed=seed)
        outcome = dynamics.run(fees, miners=miners)
        effective_capacity = min(capacity, len(fees))
        for chosen in outcome.profile:
            assert len(chosen) <= effective_capacity
            assert len(set(chosen)) == len(chosen)  # no duplicates in a set
            assert all(0 <= j < len(fees) for j in chosen)
        assert 1 <= outcome.distinct_set_count() <= miners

    @given(
        fees_strategy,
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_potential_never_below_start(self, fees, miners, seed):
        """Best replies only raise the Rosenthal potential, so the final
        potential is at least the initial one."""
        config = SelectionGameConfig(capacity=1)
        dynamics = BestReplyDynamics(config, seed=seed)
        fees_arr = np.asarray(fees, dtype=np.float64)
        initial = [(0,)] * miners  # everyone on tx 0
        outcome = dynamics.run(fees, miners=miners, initial_profile=initial)
        phi_start = rosenthal_potential(
            fees_arr, selection_counts(len(fees), initial)
        )
        assert outcome.potential() >= phi_start - 1e-9
