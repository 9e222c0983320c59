"""Per-miner reward accounting.

Tracks block rewards, transaction fees and empty blocks per miner, so the
incentives of Sec. III-D can be audited after a simulation: who was paid
for blocks that validated nothing?
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.chain.block import Block
from repro.chain.fees import FeePolicy


@dataclass
class RewardLedger:
    """Accumulates every reward source per miner public key."""

    policy: FeePolicy = field(default_factory=FeePolicy)
    block_rewards: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    fee_income: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    blocks_mined: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    empty_blocks_mined: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def credit_block(self, block: Block) -> None:
        """Record the payout for one appended block."""
        miner = block.header.miner
        self.block_rewards[miner] += self.policy.block_reward
        self.fee_income[miner] += block.total_fees
        self.blocks_mined[miner] += 1
        if block.is_empty:
            self.empty_blocks_mined[miner] += 1
