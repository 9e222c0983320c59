"""Reward and fee policy.

Sec. III-D: a miner whose block is appended receives a *block reward* plus
the block's transaction fees — and still gets the block reward for an
empty block, which is exactly why small shards waste mining power. The
inter-shard merging mechanism adds a *shard reward* ``G`` paid to every
miner of a successfully merged shard (Sec. IV-A).
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
    shard_reward:
        The merging incentive ``G`` paid per miner when a merged shard
        reaches the size lower bound ``L``.
    gas_limit:
        Block gas limit; with ``gas_per_tx`` it bounds block capacity.
        The paper uses 0x300000 gas holding at most 10 transactions.
    gas_per_tx:
        Gas consumed by one contract-invoking transaction.
    """

    block_reward: int = 2_000
    shard_reward: int = 500
    gas_limit: int = 0x300000
    gas_per_tx: int = 0x300000 // 10

    @property
    def block_capacity(self) -> int:
        """Maximum transactions per block implied by the gas limit."""
        if self.gas_per_tx <= 0:
            raise ValueError("gas_per_tx must be positive")
        return self.gas_limit // self.gas_per_tx
