"""Per-block difficulty retargeting (go-Ethereum Homestead rule, simplified).

The paper's testbed runs go-Ethereum 1.8.0, whose private chains adjust
difficulty every block toward a target interval: roughly

    d_next = d_parent + d_parent // 2048 * max(1 - (t_block - t_parent) // 10, -99)

A faster-than-10s block raises difficulty, a slower one lowers it, with
an adjustment step of d/2048 per 10-second bucket. This module implements
that controller and demonstrates (see ``tests/consensus/test_difficulty.py``)
that a mining population governed by it
converges to a constant network interval regardless of miner count — the
first-principles justification for the
``max(retarget_floor, solo/miners)`` shortcut in
:class:`repro.sim.config.TimingModel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigError

#: go-Ethereum's adjustment quotient: the step is difficulty // 2048.
ADJUSTMENT_QUOTIENT = 2048
#: go-Ethereum's duration bucket (seconds) in the Homestead rule.
DURATION_BUCKET = 10.0
#: Largest downward adjustment multiplier.
MAX_DOWNWARD = -99


@dataclass(frozen=True)
class RetargetRule:
    """The Homestead difficulty-adjustment rule, parameterized.

    ``target_interval`` is implied by the bucket: blocks faster than one
    bucket push difficulty up, slower blocks push it down, so the
    controller settles where the expected interval sits near the bucket
    boundary. ``minimum_difficulty`` mirrors geth's floor.
    """

    adjustment_quotient: int = ADJUSTMENT_QUOTIENT
    duration_bucket: float = DURATION_BUCKET
    minimum_difficulty: int = 131_072  # geth's MinimumDifficulty

    def __post_init__(self) -> None:
        if self.adjustment_quotient <= 0:
            raise ConfigError("adjustment quotient must be positive")
        if self.duration_bucket <= 0:
            raise ConfigError("duration bucket must be positive")
        if self.minimum_difficulty <= 0:
            raise ConfigError("minimum difficulty must be positive")

    def next_difficulty(self, parent_difficulty: int, block_time: float) -> int:
        """Difficulty of the next block given the parent's block time."""
        if parent_difficulty <= 0:
            raise ConfigError("parent difficulty must be positive")
        if block_time < 0:
            raise ConfigError("block time cannot be negative")
        buckets = int(block_time // self.duration_bucket)
        multiplier = max(1 - buckets, MAX_DOWNWARD)
        step = parent_difficulty // self.adjustment_quotient
        adjusted = parent_difficulty + step * multiplier
        return max(adjusted, self.minimum_difficulty)


@dataclass
class RetargetSimulation:
    """Simulates a mining population under per-block retargeting.

    Each block's discovery time is exponential with mean
    ``difficulty / (hashrate_per_miner * miners)``; the rule then adjusts
    difficulty. Running enough blocks shows the interval converging to a
    miner-count-independent steady state.
    """

    rule: RetargetRule
    hashrate_per_miner: float
    miners: int
    initial_difficulty: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.hashrate_per_miner <= 0 or self.miners <= 0:
            raise ConfigError("hash rate and miner count must be positive")
        if self.initial_difficulty <= 0:
            raise ConfigError("initial difficulty must be positive")

    def run(self, blocks: int) -> list[float]:
        """Mine ``blocks`` blocks; returns the per-block intervals."""
        if blocks <= 0:
            raise ConfigError("blocks must be positive")
        rng = random.Random(self.seed)
        network_hashrate = self.hashrate_per_miner * self.miners
        difficulty = self.initial_difficulty
        intervals: list[float] = []
        for __ in range(blocks):
            expected = difficulty / network_hashrate
            block_time = rng.expovariate(1.0 / expected)
            intervals.append(block_time)
            difficulty = self.rule.next_difficulty(difficulty, block_time)
        return intervals

    def steady_state_interval(
        self, blocks: int = 4_000, warmup_fraction: float = 0.5
    ) -> float:
        """Mean interval after the controller settles.

        ``warmup_fraction`` must be in ``[0, 1)``: the whole-run mean is
        the 0.0 boundary, while 1.0 would discard every sample and leave
        nothing to average.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must be in [0, 1): got {warmup_fraction}"
            )
        intervals = self.run(blocks)
        start = int(len(intervals) * warmup_fraction)
        tail = intervals[start:]
        return sum(tail) / len(tail)
