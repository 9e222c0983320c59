"""Tests for repro.chain.validation — the Sec. III-C block checks."""

from repro.chain.block import Block
from repro.chain.validation import BlockValidator
from tests.conftest import make_transfer


def make_block(miner="pk-y", shard=1, txs=()):
    return Block.build(
        parent_hash=Block.genesis(shard).block_hash,
        miner=miner,
        shard_id=shard,
        height=1,
        timestamp=1.0,
        transactions=list(txs),
    )


class TestBlockValidator:
    def membership(self, table: dict[str, int]):
        return lambda public, shard: table.get(public) == shard

    def test_same_shard_block_recorded(self):
        validator = BlockValidator(1, self.membership({"pk-y": 1}))
        verdict = validator.inspect(make_block(miner="pk-y", shard=1))
        assert verdict.accepted and verdict.recorded

    def test_foreign_shard_block_accepted_not_recorded(self):
        validator = BlockValidator(2, self.membership({"pk-y": 1}))
        verdict = validator.inspect(make_block(miner="pk-y", shard=1))
        assert verdict.accepted and not verdict.recorded

    def test_shard_liar_rejected(self):
        """First Sec. III-C verification: Y cheats on her shard id."""
        validator = BlockValidator(2, self.membership({"pk-y": 1}))
        verdict = validator.inspect(make_block(miner="pk-y", shard=2))
        assert not verdict.accepted
        assert "not a member" in verdict.reason

    def test_unknown_miner_rejected(self):
        validator = BlockValidator(1, self.membership({}))
        verdict = validator.inspect(make_block(miner="pk-stranger", shard=1))
        assert not verdict.accepted

    def test_body_tampering_rejected(self):
        validator = BlockValidator(1, self.membership({"pk-y": 1}))
        honest = make_block(miner="pk-y", shard=1)
        tampered = Block(
            header=honest.header,
            transactions=(make_transfer("0xuevil", "0xue2"),),
        )
        verdict = validator.inspect(tampered)
        assert not verdict.accepted
        assert "root" in verdict.reason
