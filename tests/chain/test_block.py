"""Tests for repro.chain.block."""

from repro.chain.block import GENESIS_PARENT, Block
from tests.conftest import make_call


def build_block(txs=(), height=1, parent=None, shard=1):
    return Block.build(
        parent_hash=parent or Block.genesis(shard).block_hash,
        miner="pk-miner",
        shard_id=shard,
        height=height,
        timestamp=12.5,
        transactions=list(txs),
    )


class TestGenesis:
    def test_genesis_parent_sentinel(self):
        genesis = Block.genesis()
        assert genesis.header.parent_hash == GENESIS_PARENT
        assert genesis.header.height == 0

    def test_genesis_per_shard_differs(self):
        assert Block.genesis(0).block_hash != Block.genesis(1).block_hash

    def test_genesis_is_empty(self):
        assert Block.genesis().is_empty


class TestBlock:
    def test_hash_is_deterministic(self):
        tx = make_call("0xua")
        a = build_block([tx])
        b = Block(header=a.header, transactions=a.transactions)
        assert a.block_hash == b.block_hash

    def test_hash_covers_transactions(self):
        a = build_block([make_call("0xua")])
        b = build_block([make_call("0xub")])
        assert a.block_hash != b.block_hash

    def test_hash_covers_miner(self):
        genesis_hash = Block.genesis(1).block_hash
        a = Block.build(genesis_hash, "pk-a", 1, 1, 0.0)
        b = Block.build(genesis_hash, "pk-b", 1, 1, 0.0)
        assert a.block_hash != b.block_hash

    def test_is_empty(self):
        assert build_block().is_empty
        assert not build_block([make_call("0xua")]).is_empty

    def test_total_fees(self):
        txs = [make_call("0xua", fee=3), make_call("0xub", fee=7)]
        assert build_block(txs).total_fees == 10

    def test_commits_to_body(self):
        block = build_block([make_call("0xua")])
        assert block.commits_to_body()

    def test_built_block_check_builds_no_tree(self, monkeypatch):
        block = build_block([make_call("0xua")])

        def no_tree(items):
            raise AssertionError("commits_to_body rebuilt a Merkle tree")

        monkeypatch.setattr("repro.chain.block.MerkleTree", no_tree)
        assert block.commits_to_body()

    def test_detects_body_tampering(self):
        block = build_block([make_call("0xua")])
        tampered = Block(
            header=block.header, transactions=(make_call("0xevil"),)
        )
        assert not tampered.commits_to_body()

    def test_detects_tx_removal(self):
        txs = [make_call("0xua"), make_call("0xub")]
        block = build_block(txs)
        truncated = Block(header=block.header, transactions=(txs[0],))
        assert not truncated.commits_to_body()

    def test_empty_block_commits(self):
        assert build_block().commits_to_body()
