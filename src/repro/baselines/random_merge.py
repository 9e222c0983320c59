"""The randomized merging baseline (Sec. VI-C2).

"Miners in small shards randomly choose whether to merge with others with
a probability of 0.5. At some random point, all the miners are at an
equilibrium state ... to form a stable shard, and the algorithm also
stops here." Each round flips a fair coin per remaining player; the heads
form one new shard when they satisfy constraint (1). Because roughly half
of *all* remaining players lump into each new shard, the baseline
overshoots the lower bound badly and produces far fewer shards than the
game-driven algorithm — the Fig. 3(e)-(g) gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.merging.game import MergingGameConfig, ShardPlayer, constraint_satisfied
from repro.errors import MergingError


@dataclass(frozen=True)
class RandomMergeResult:
    """The randomized baseline's outcome, mirroring Algorithm 1's result."""

    new_shard_sizes: tuple[int, ...]
    new_shard_members: tuple[tuple[int, ...], ...]
    leftover_players: tuple[ShardPlayer, ...]
    rounds: int

    @property
    def new_shard_count(self) -> int:
        return len(self.new_shard_sizes)


class RandomizedMerging:
    """The p=0.5 coin-flip merging baseline."""

    def __init__(
        self,
        config: MergingGameConfig,
        probability: float = 0.5,
        seed: int | None = None,
        max_attempts_per_round: int = 3,
    ) -> None:
        if not 0.0 < probability < 1.0:
            raise MergingError("merge probability must be in (0, 1)")
        self._config = config
        self._probability = probability
        self._rng = random.Random(seed)
        self._max_attempts = max_attempts_per_round

    def run(self, players: list[ShardPlayer]) -> RandomMergeResult:
        """Flip coins round by round until no viable shard remains."""
        remaining = list(players)
        sizes: list[int] = []
        members: list[tuple[int, ...]] = []
        rounds = 0
        while self._can_form(remaining):
            merged = self._one_round(remaining)
            rounds += 1
            if merged is None:
                break
            merged_ids = {p.shard_id for p in merged}
            sizes.append(sum(p.size for p in merged))
            members.append(tuple(sorted(merged_ids)))
            remaining = [p for p in remaining if p.shard_id not in merged_ids]
        return RandomMergeResult(
            new_shard_sizes=tuple(sizes),
            new_shard_members=tuple(members),
            leftover_players=tuple(remaining),
            rounds=rounds,
        )

    def _one_round(self, remaining: list[ShardPlayer]) -> list[ShardPlayer] | None:
        """Draw one coin-flip realization; None when no draw satisfies (1).

        The baseline "stops at some random point": after a few failed
        draws the process ends, which is what leaves it behind the
        game-driven algorithm on shard count. The attempt budget is the
        knob between the strict one-shot reading (1) and an idealized
        retry-forever variant (large) explored in the ablations.
        """
        for __ in range(self._max_attempts):
            merged = [
                p for p in remaining if self._rng.random() < self._probability
            ]
            size = sum(p.size for p in merged)
            if merged and constraint_satisfied(size, self._config.lower_bound):
                return merged
        return None

    def _can_form(self, remaining: list[ShardPlayer]) -> bool:
        if len(remaining) < 2:
            return False
        return sum(p.size for p in remaining) >= self._config.lower_bound
