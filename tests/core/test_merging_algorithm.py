"""Tests for repro.core.merging.algorithm — Algorithms 1 and 3."""

import pytest

from repro.core.merging.algorithm import IterativeMerging, OneTimeMerge
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.errors import MergingError


CONFIG = MergingGameConfig(shard_reward=10.0, lower_bound=10, subslots=16)


def players_of(sizes, cost=2.0):
    return [
        ShardPlayer(shard_id=i, size=size, cost=cost)
        for i, size in enumerate(sizes, start=1)
    ]


class TestOneTimeMerge:
    def test_needs_players(self):
        with pytest.raises(MergingError):
            OneTimeMerge(CONFIG, seed=1).run([])

    def test_cost_must_be_below_reward(self):
        with pytest.raises(MergingError, match="shard reward"):
            OneTimeMerge(CONFIG, seed=1).run(players_of([5, 5], cost=20.0))

    def test_forms_satisfying_shard_when_possible(self):
        outcome = OneTimeMerge(CONFIG, seed=1).run(players_of([5, 5, 5, 5]))
        assert outcome.satisfied
        assert outcome.merged_size >= CONFIG.lower_bound

    def test_impossible_constraint_reported_honestly(self):
        outcome = OneTimeMerge(CONFIG, seed=1).run(players_of([2, 3]))
        assert not outcome.satisfied
        assert outcome.merged_size < CONFIG.lower_bound

    def test_probabilities_stay_in_bounds(self):
        outcome = OneTimeMerge(CONFIG, seed=2).run(players_of([5] * 6))
        floor = CONFIG.probability_floor
        assert all(floor <= p <= 1.0 - floor for p in outcome.probabilities)

    def test_deterministic_under_seed(self):
        a = OneTimeMerge(CONFIG, seed=7).run(players_of([5] * 6))
        b = OneTimeMerge(CONFIG, seed=7).run(players_of([5] * 6))
        assert a.merged_shards == b.merged_shards
        assert a.probabilities == b.probabilities

    def test_initial_probabilities_respected(self):
        players = players_of([5] * 4)
        outcome = OneTimeMerge(CONFIG, seed=3).run(
            players, initial_probabilities=[0.9, 0.9, 0.1, 0.1]
        )
        assert outcome.satisfied

    def test_initial_probabilities_length_checked(self):
        with pytest.raises(MergingError):
            OneTimeMerge(CONFIG, seed=3).run(
                players_of([5, 5]), initial_probabilities=[0.5]
            )

    def test_staying_shards_partition(self):
        players = players_of([5] * 5)
        outcome = OneTimeMerge(CONFIG, seed=4).run(players)
        merged = outcome.merged_shards
        assert set(merged) <= {p.shard_id for p in players}
        assert len(set(merged)) == len(merged)

    def test_converges_within_budget(self):
        outcome = OneTimeMerge(CONFIG, seed=5).run(players_of([4, 6, 3, 7, 5]))
        assert outcome.converged
        assert outcome.slots_used <= CONFIG.max_slots

    def test_single_big_player_unsatisfiable_alone(self):
        # A single player of size >= L "merging with herself" still counts
        # as reaching the bound if she merges; the realization must not
        # invent other players.
        outcome = OneTimeMerge(CONFIG, seed=6).run(players_of([12]))
        assert set(outcome.merged_shards) <= {1}


class TestIterativeMerging:
    def test_produces_multiple_shards(self):
        result = IterativeMerging(CONFIG, seed=1).run(players_of([5] * 8))
        assert result.new_shard_count >= 2
        assert all(o.merged_size >= CONFIG.lower_bound for o in result.new_shards)

    def test_merged_players_disjoint_across_rounds(self):
        result = IterativeMerging(CONFIG, seed=2).run(players_of([5] * 8))
        seen = set()
        for outcome in result.new_shards:
            assert not (set(outcome.merged_shards) & seen)
            seen |= set(outcome.merged_shards)

    def test_leftovers_cannot_form_viable_shard(self):
        result = IterativeMerging(CONFIG, seed=3).run(players_of([5] * 7))
        leftover_total = sum(p.size for p in result.leftover_players)
        assert (
            leftover_total < CONFIG.lower_bound
            or len(result.leftover_players) < 2
            or result.rounds > 0
        )

    def test_empty_population(self):
        result = IterativeMerging(CONFIG, seed=4).run([])
        assert result.new_shard_count == 0
        assert result.leftover_players == ()

    def test_single_player_never_merges(self):
        result = IterativeMerging(CONFIG, seed=5).run(players_of([50]))
        assert result.new_shard_count == 0
        assert len(result.leftover_players) == 1

    def test_total_size_conserved(self):
        players = players_of([3, 7, 5, 9, 2, 6])
        result = IterativeMerging(CONFIG, seed=6).run(players)
        merged_total = sum(o.merged_size for o in result.new_shards)
        leftover_total = sum(p.size for p in result.leftover_players)
        assert merged_total + leftover_total == sum(p.size for p in players)

    def test_deterministic_under_seed(self):
        a = IterativeMerging(CONFIG, seed=7).run(players_of([5] * 10))
        b = IterativeMerging(CONFIG, seed=7).run(players_of([5] * 10))
        assert a.new_shard_sizes() == b.new_shard_sizes()

    def test_complexity_bound_on_rounds(self):
        """Algorithm 1 runs Algorithm 3 at most S/2 times... in practice
        far fewer; assert the hard upper bound from the paper."""
        players = players_of([5] * 20)
        result = IterativeMerging(CONFIG, seed=8).run(players)
        assert result.rounds <= len(players) // 2 + 1

    def test_near_optimal_at_scale(self):
        """The Fig. 5(a) headline: within ~70-100% of optimal."""
        import random

        rng = random.Random(42)
        sizes = [rng.randint(1, 9) for __ in range(200)]
        config = MergingGameConfig(
            shard_reward=10.0, lower_bound=50, subslots=16, max_slots=200
        )
        result = IterativeMerging(config, seed=9).run(players_of(sizes))
        optimal = sum(sizes) // config.lower_bound
        assert result.new_shard_count >= int(0.6 * optimal)
        assert result.new_shard_count <= optimal
