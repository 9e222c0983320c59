"""Equilibrium predicates for the merging game.

These are the checkable counterparts of the Sec. V analysis: given a pure
strategy profile, compute everyone's payoff (Eq. 8/9) and test whether any
player has a profitable unilateral deviation — the Nash condition the
replicator dynamics are proved to converge to. Used by the analysis
benchmarks and the property-based tests.
"""

from __future__ import annotations

from repro.core.merging.game import (
    MergingGameConfig,
    ShardPlayer,
    constraint_satisfied,
    realized_utility,
)
from repro.errors import MergingError


def expected_payoffs(
    players: list[ShardPlayer],
    profile: list[bool],
    config: MergingGameConfig,
) -> list[float]:
    """Realized payoff of every player under a pure profile.

    ``profile[i]`` is True when player ``i`` merges. With pure strategies
    ``Pr(y_m > L)`` collapses to the indicator of constraint (1) over the
    merging set, so Eq. (8)/(9) reduce to the Eq. (14) table.
    """
    if len(players) != len(profile):
        raise MergingError("profile length does not match player count")
    merged_size = sum(p.size for p, merges in zip(players, profile) if merges)
    anyone_merges = any(profile)
    satisfied = anyone_merges and constraint_satisfied(
        merged_size, config.lower_bound
    )
    return [
        realized_utility(merges, satisfied, config.shard_reward, p.cost)
        for p, merges in zip(players, profile)
    ]


def best_pure_deviation(
    players: list[ShardPlayer],
    profile: list[bool],
    config: MergingGameConfig,
) -> tuple[int, float] | None:
    """The most profitable unilateral deviation, or None at equilibrium.

    Returns ``(player index, payoff gain)`` for the player who gains the
    most by flipping her strategy while everyone else holds.

    A flip only moves the merged size by the flipping player's own
    ``c_i`` (Eq. 7), so the whole scan needs the merged size once and an
    O(1) adjustment per player — O(n) total, where recomputing the full
    Eq. (14) table per flip is O(n^2).
    """
    if len(players) != len(profile):
        raise MergingError("profile length does not match player count")
    merged_size = sum(p.size for p, merges in zip(players, profile) if merges)
    merge_count = sum(1 for merges in profile if merges)
    satisfied = merge_count > 0 and constraint_satisfied(
        merged_size, config.lower_bound
    )
    best: tuple[int, float] | None = None
    for i, (player, merges) in enumerate(zip(players, profile)):
        current = realized_utility(
            merges, satisfied, config.shard_reward, player.cost
        )
        if merges:
            flipped_any = merge_count > 1
            flipped_size = merged_size - player.size
        else:
            flipped_any = True
            flipped_size = merged_size + player.size
        flipped_satisfied = flipped_any and constraint_satisfied(
            flipped_size, config.lower_bound
        )
        deviated = realized_utility(
            not merges, flipped_satisfied, config.shard_reward, player.cost
        )
        gain = deviated - current
        if gain > 1e-12 and (best is None or gain > best[1]):
            best = (i, gain)
    return best


def is_pure_nash(
    players: list[ShardPlayer],
    profile: list[bool],
    config: MergingGameConfig,
) -> bool:
    """Whether no player can gain by a unilateral flip."""
    return best_pure_deviation(players, profile, config) is None


def enumerate_pure_nash(
    players: list[ShardPlayer],
    config: MergingGameConfig,
) -> list[list[bool]]:
    """Exhaustively enumerate pure Nash equilibria (small games only).

    Exponential in the player count; guarded at 16 players. Used by the
    analysis tests to cross-check the replicator dynamics against ground
    truth on small instances.
    """
    n = len(players)
    if n > 16:
        raise MergingError("exhaustive enumeration is limited to 16 players")
    equilibria: list[list[bool]] = []
    for mask in range(1 << n):
        profile = [(mask >> i) & 1 == 1 for i in range(n)]
        if is_pure_nash(players, profile, config):
            equilibria.append(profile)
    return equilibria
