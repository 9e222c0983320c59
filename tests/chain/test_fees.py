"""Tests for repro.chain.fees."""

from repro.chain.block import Block
from repro.chain.fees import FeePolicy
from repro.consensus.rewards import RewardLedger
from tests.conftest import make_call


def payout(policy, block):
    """What the packing miner earns for one appended block."""
    ledger = RewardLedger(policy=policy)
    ledger.credit_block(block)
    miner = block.header.miner
    return ledger.block_rewards[miner] + ledger.fee_income[miner]


def block_with(txs):
    return Block.build(
        parent_hash=Block.genesis(1).block_hash,
        miner="pk",
        shard_id=1,
        height=1,
        timestamp=0.0,
        transactions=txs,
    )


class TestFeePolicy:
    def test_block_payout_includes_fees(self):
        policy = FeePolicy(block_reward=100)
        block = block_with([make_call("0xua", fee=3), make_call("0xub", fee=4)])
        assert payout(policy, block) == 107

    def test_empty_block_still_pays_block_reward(self):
        """Sec. III-D: 'even if the block does not contain any
        transactions, that miner can still get the block reward' — the
        incentive that makes empty blocks rational."""
        policy = FeePolicy(block_reward=100)
        assert payout(policy, block_with([])) == 100
