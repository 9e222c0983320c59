"""Reward policy.

Sec. III-D: a miner whose block is appended receives a *block reward* plus
the block's transaction fees — and still gets the block reward for an
empty block, which is exactly why small shards waste mining power. The
merging incentive ``G`` of Sec. IV-A is the merging game's
(:attr:`repro.core.merging.game.MergingGameConfig.shard_reward`): no
protocol run merges shards, so no run pays it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FeePolicy:
    """Static reward schedule for one chain instance.

    Parameters
    ----------
    block_reward:
        Coins paid for any appended block, empty or not.
    """

    block_reward: int = 2_000
