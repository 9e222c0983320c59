"""Tests for repro.consensus.rewards."""

from repro.chain.block import Block
from repro.chain.fees import FeePolicy
from repro.consensus.rewards import RewardLedger
from tests.conftest import make_call


def block_for(miner, txs=()):
    return Block.build(
        parent_hash=Block.genesis(1).block_hash,
        miner=miner,
        shard_id=1,
        height=1,
        timestamp=0.0,
        transactions=list(txs),
    )


class TestRewardLedger:
    def test_credit_block(self):
        ledger = RewardLedger(policy=FeePolicy(block_reward=100))
        ledger.credit_block(block_for("pk-a", [make_call("0xua", fee=5)]))
        assert ledger.block_rewards["pk-a"] == 100
        assert ledger.fee_income["pk-a"] == 5

    def test_empty_block_counts(self):
        ledger = RewardLedger()
        ledger.credit_block(block_for("pk-a"))
        ledger.credit_block(block_for("pk-a", [make_call("0xua")]))
        assert ledger.empty_blocks_mined["pk-a"] == 1
        assert ledger.blocks_mined["pk-a"] == 2
