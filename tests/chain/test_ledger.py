"""Tests for repro.chain.ledger."""

import pytest

from repro.chain.block import Block
from repro.chain.ledger import ConfirmationTally, HeadMove, Ledger
from repro.errors import LedgerError
from tests.conftest import confirmed_ids_scan, make_call


def count_empty(blocks) -> int:
    """Empty non-genesis blocks: the wasted-power metric."""
    return sum(1 for b in blocks if b.is_empty and b.header.height > 0)


def extend(ledger: Ledger, parent_hash: str, height: int, txs=(), miner="pk"):
    block = Block.build(
        parent_hash=parent_hash,
        miner=miner,
        shard_id=ledger.shard_id,
        height=height,
        timestamp=float(height),
        transactions=list(txs),
    )
    ledger.add_block(block)
    return block


class TestAppend:
    def test_fresh_ledger_is_at_genesis(self):
        ledger = Ledger(shard_id=1)
        assert ledger.height == 0
        assert ledger.head_hash == ledger.genesis_hash

    def test_simple_chain(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        b2 = extend(ledger, b1.block_hash, 2)
        assert ledger.height == 2
        assert ledger.head_hash == b2.block_hash

    def test_duplicate_rejected(self):
        ledger = Ledger()
        block = Block.build(ledger.head_hash, "pk", 0, 1, 1.0)
        ledger.add_block(block)
        with pytest.raises(LedgerError, match="duplicate"):
            ledger.add_block(block)

    def test_unknown_parent_rejected(self):
        ledger = Ledger()
        orphan = Block.build("f" * 64, "pk", 0, 1, 1.0)
        with pytest.raises(LedgerError, match="unknown parent"):
            ledger.add_block(orphan)

    def test_add_block_reports_head_change(self):
        ledger = Ledger()
        genesis_hash = ledger.head_hash
        b1 = Block.build(genesis_hash, "pk1", 0, 1, 1.0)
        assert ledger.add_block(b1) == HeadMove(left=[], joined=[b1])
        fork = Block.build(genesis_hash, "pk2", 0, 1, 1.5)
        assert ledger.add_block(fork) is None  # same height loses tie
        f2 = Block.build(fork.block_hash, "pk2", 0, 2, 2.5)
        assert ledger.add_block(f2) == HeadMove(left=[b1], joined=[fork, f2])


class TestForkChoice:
    def test_longest_chain_wins(self):
        ledger = Ledger()
        a1 = extend(ledger, ledger.head_hash, 1, miner="pkA")
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1)
        ledger.add_block(b1)
        assert ledger.head_hash == a1.block_hash  # first arrival keeps tie
        b2 = extend(ledger, b1.block_hash, 2, miner="pkB")
        assert ledger.head_hash == b2.block_hash  # longer fork overtakes

    def test_stale_blocks_counted(self):
        ledger = Ledger()
        extend(ledger, ledger.head_hash, 1, miner="pkA")
        loser = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(loser)
        assert ledger.count_stale_blocks() == 1

    def test_canonical_chain_order(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        b2 = extend(ledger, b1.block_hash, 2)
        chain = ledger.canonical_chain()
        assert [b.header.height for b in chain] == [0, 1, 2]
        assert chain[-1].block_hash == b2.block_hash


class TestStatistics:
    def test_confirmed_transactions(self):
        ledger = Ledger()
        tx1, tx2 = make_call("0xua"), make_call("0xub")
        b1 = extend(ledger, ledger.head_hash, 1, txs=[tx1])
        extend(ledger, b1.block_hash, 2, txs=[tx2])
        assert ledger.confirmed_tx_ids() == {tx1.tx_id, tx2.tx_id}

    def test_fork_txs_not_confirmed(self):
        ledger = Ledger()
        tx_main, tx_fork = make_call("0xua"), make_call("0xub")
        extend(ledger, ledger.head_hash, 1, txs=[tx_main])
        fork = Block.build(
            Block.genesis(0).block_hash, "pkB", 0, 1, 1.2, [tx_fork]
        )
        ledger.add_block(fork)
        assert tx_fork.tx_id not in ledger.confirmed_tx_ids()

    def test_count_empty_blocks_excludes_genesis(self):
        ledger = Ledger()
        assert count_empty(ledger.canonical_chain()) == 0
        b1 = extend(ledger, ledger.head_hash, 1)  # empty
        extend(ledger, b1.block_hash, 2, txs=[make_call("0xua")])
        assert count_empty(ledger.canonical_chain()) == 1

    def test_count_empty_blocks_all_vs_canonical(self):
        ledger = Ledger()
        extend(ledger, ledger.head_hash, 1)
        fork = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(fork)
        assert count_empty(ledger.canonical_chain()) == 1
        assert count_empty(ledger.all_blocks()) == 2

    def test_knows(self):
        ledger = Ledger()
        block = extend(ledger, ledger.head_hash, 1)
        assert ledger.knows(block.block_hash)
        assert not ledger.knows("0" * 64)


class TestIncrementalViews:
    """The incremental canonical/confirmed views vs. a chain walk."""

    def test_incremental_matches_scan_through_reorg(self):
        ledger = Ledger()
        tx_a, tx_b, tx_c = make_call("0xua"), make_call("0xub"), make_call("0xuc")
        a1 = extend(ledger, ledger.head_hash, 1, txs=[tx_a], miner="pkA")
        assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)
        # A competing branch from genesis overtakes the head.
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1, [tx_b])
        ledger.add_block(b1)
        b2 = extend(ledger, b1.block_hash, 2, txs=[tx_c], miner="pkB")
        assert ledger.head_hash == b2.block_hash
        assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)
        assert tx_a.tx_id not in ledger.confirmed_tx_ids()
        # The original branch fights back and wins again.
        a2 = extend(ledger, a1.block_hash, 2, txs=[tx_b], miner="pkA")
        a3 = extend(ledger, a2.block_hash, 3, miner="pkA")
        assert ledger.head_hash == a3.block_hash
        assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)
        assert tx_a.tx_id in ledger.confirmed_tx_ids()

    def test_duplicate_tx_across_branches_survives_unwind(self):
        # The same tx id confirmed on both branches must stay confirmed
        # after one branch is unwound (the multiset case).
        ledger = Ledger()
        shared = make_call("0xua")
        a1 = extend(ledger, ledger.head_hash, 1, txs=[shared], miner="pkA")
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1, [shared])
        ledger.add_block(b1)
        extend(ledger, b1.block_hash, 2, miner="pkB")  # reorg to branch B
        assert shared.tx_id in ledger.confirmed_tx_ids()
        assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)

    def test_canonical_hashes_and_is_canonical(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        loser = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.2)
        ledger.add_block(loser)
        assert {b.block_hash for b in ledger.canonical_chain()} == {
            ledger.genesis_hash,
            b1.block_hash,
        }
        assert ledger.knows(loser.block_hash)

    def test_block_and_parent_accessors(self):
        ledger = Ledger()
        b1 = extend(ledger, ledger.head_hash, 1)
        assert ledger.block(b1.block_hash) is b1
        assert b1.header.parent_hash == ledger.genesis_hash
        with pytest.raises(LedgerError):
            ledger.block("f" * 64)


class TestConfirmationTally:
    """The O(1) stop-check count vs. the union of confirmed sets."""

    @staticmethod
    def _missing_by_scan(targets, ledgers):
        confirmed = set()
        for ledger in ledgers:
            confirmed |= confirmed_ids_scan(ledger)
        return len(targets - confirmed)

    def test_counts_targets_no_ledger_confirms_through_reorgs(self):
        tx_a, tx_b, tx_c = make_call("0xua"), make_call("0xub"), make_call("0xuc")
        stray = make_call("0xud")  # confirmed, but not a target
        targets = {tx_a.tx_id, tx_b.tx_id, tx_c.tx_id}
        one, two = Ledger(), Ledger()
        tally = ConfirmationTally(targets)
        one.watch(tally)
        two.watch(tally)
        assert tally.missing == 3

        def check():
            assert tally.missing == self._missing_by_scan(targets, (one, two))

        a1 = extend(one, one.head_hash, 1, txs=[tx_a, stray], miner="pkA")
        check()
        extend(two, two.head_hash, 1, txs=[tx_a], miner="pkA")
        check()
        # Ledger one reorgs tx_a away; ledger two still confirms it.
        b1 = Block.build(Block.genesis(0).block_hash, "pkB", 0, 1, 1.1, [tx_b])
        one.add_block(b1)
        extend(one, b1.block_hash, 2, txs=[tx_c], miner="pkB")
        check()
        assert tally.missing == 0
        # Branch A wins back on ledger one: tx_b and tx_c unconfirm.
        a2 = extend(one, a1.block_hash, 2, miner="pkA")
        extend(one, a2.block_hash, 3, miner="pkA")
        check()
        assert tally.missing == 2

    def test_watch_counts_what_is_already_confirmed(self):
        tx_a = make_call("0xua")
        ledger = Ledger()
        extend(ledger, ledger.head_hash, 1, txs=[tx_a])
        tally = ConfirmationTally({tx_a.tx_id, make_call("0xub").tx_id})
        ledger.watch(tally)
        assert tally.missing == 1

    def test_no_targets_is_drained(self):
        assert ConfirmationTally(set()).missing == 0

    def test_edges_net_out_within_one_reorg(self):
        """The lineage probe's edges: a tx that leaves and re-enters the
        union between two reads is no edge; a net entry or exit is one,
        with the confirming ledger's shard."""
        tx_a, tx_b, tx_c = make_call("0xua"), make_call("0xub"), make_call("0xuc")
        ledger = Ledger(shard_id=2)
        tally = ConfirmationTally({tx_a.tx_id, tx_b.tx_id, tx_c.tx_id})
        ledger.watch(tally)
        tally.edges = {}
        genesis = ledger.genesis_hash
        a1 = extend(ledger, genesis, 1, txs=[tx_a, tx_b], miner="pkA")
        assert tally.edges == {tx_a.tx_id: 2, tx_b.tx_id: 2}
        tally.edges = {}
        # Branch B re-confirms tx_a and drops tx_b in one reorg: tx_a
        # leaves and re-enters the union, so only tx_b (left) and tx_c
        # (joined) are edges.
        b1 = Block.build(genesis, "pkB", 2, 1, 1.1, [tx_a])
        assert ledger.add_block(b1) is None
        move = ledger.add_block(
            Block.build(b1.block_hash, "pkB", 2, 2, 2.1, [tx_c])
        )
        assert move.left == [a1]
        assert tally.edges == {tx_b.tx_id: 2, tx_c.tx_id: 2}
        assert [tx_id for tx_id in tally.edges if not tally.confirming[tx_id]] == [
            tx_b.tx_id
        ]
        assert tally.missing == 1
