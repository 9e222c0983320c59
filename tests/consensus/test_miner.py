"""Tests for repro.consensus.miner behaviors."""

from repro.chain.mempool import Mempool
from repro.consensus.miner import (
    AssignedSelectionBehavior,
    HonestBehavior,
    MinerIdentity,
    SelectionLiarBehavior,
    ShardLiarBehavior,
)
from tests.conftest import make_call


def pool_with(fees):
    pool = Mempool()
    txs = [make_call(f"0xu{i}", fee=fee) for i, fee in enumerate(fees)]
    for tx in txs:
        pool.add(tx)
    return pool, txs


class TestMinerIdentity:
    def test_create_is_deterministic(self):
        assert MinerIdentity.create("m").keypair == MinerIdentity.create("m").keypair

    def test_distinct_names_distinct_keys(self):
        assert MinerIdentity.create("a").public != MinerIdentity.create("b").public


class TestHonestBehavior:
    def test_picks_top_fees(self):
        pool, txs = pool_with([1, 9, 5])
        picked = HonestBehavior().pick_transactions(pool, capacity=2)
        assert [tx.fee for tx in picked] == [9, 5]

    def test_claims_true_shard(self):
        assert HonestBehavior().claimed_shard(3) == 3


class TestAssignedSelectionBehavior:
    def test_packs_only_assigned(self):
        pool, txs = pool_with([1, 9, 5])
        behavior = AssignedSelectionBehavior([txs[0].tx_id, txs[2].tx_id])
        picked = behavior.pick_transactions(pool, capacity=10)
        assert picked == [txs[0], txs[2]]

    def test_confirmed_assignments_drop_out(self):
        pool, txs = pool_with([1, 9])
        behavior = AssignedSelectionBehavior([txs[0].tx_id, txs[1].tx_id])
        pool.remove(txs[0].tx_id)
        assert behavior.pick_transactions(pool, capacity=10) == [txs[1]]

    def test_capacity_respected(self):
        pool, txs = pool_with([1, 2, 3])
        behavior = AssignedSelectionBehavior([tx.tx_id for tx in txs])
        assert len(behavior.pick_transactions(pool, capacity=2)) == 2


class TestCheatingBehaviors:
    def test_shard_liar_claims_fake_shard(self):
        liar = ShardLiarBehavior(fake_shard=7)
        assert liar.claimed_shard(1) == 7

    def test_shard_liar_delegates_selection(self):
        pool, __ = pool_with([1, 9])
        picked = ShardLiarBehavior(fake_shard=7).pick_transactions(pool, 1)
        assert picked[0].fee == 9

    def test_selection_liar_greedy(self):
        pool, __ = pool_with([1, 9, 5])
        picked = SelectionLiarBehavior().pick_transactions(pool, 2)
        assert [tx.fee for tx in picked] == [9, 5]
