"""Tests for repro.chain.mempool."""

import pytest

from repro.chain.mempool import Mempool
from tests.conftest import fee_sorted, make_call


def add_all(pool, txs):
    for tx in txs:
        pool.add(tx)


class TestBasics:
    def test_add_and_len(self):
        pool = Mempool()
        assert pool.add(make_call("0xua"))
        assert len(pool) == 1

    def test_add_duplicate_refused(self):
        pool = Mempool()
        tx = make_call("0xua")
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_contains(self):
        pool = Mempool()
        tx = make_call("0xua")
        pool.add(tx)
        assert tx.tx_id in pool

    def test_remove(self):
        pool = Mempool()
        tx = make_call("0xua")
        pool.add(tx)
        assert pool.remove(tx.tx_id) == tx
        assert pool.remove(tx.tx_id) is None

    def test_remove_confirmed(self):
        pool = Mempool()
        txs = [make_call(f"0xu{i}") for i in range(5)]
        add_all(pool, txs)
        confirmed = {txs[0].tx_id, txs[1].tx_id, "not-present"}
        assert pool.remove_confirmed(confirmed) == 2
        assert len(pool) == 3

    def test_clear(self):
        pool = Mempool()
        pool.add(make_call("0xua"))
        pool.clear()
        assert len(pool) == 0

    def test_total_fees(self):
        pool = Mempool()
        add_all(pool, [make_call("0xua", fee=3), make_call("0xub", fee=4)])
        assert pool.total_fees() == 7


class TestFeeGreedySelection:
    def test_orders_by_fee_desc(self):
        pool = Mempool()
        low = make_call("0xua", fee=1)
        high = make_call("0xub", fee=9)
        mid = make_call("0xuc", fee=5)
        add_all(pool, [low, high, mid])
        assert pool.select_by_fee(3) == [high, mid, low]

    def test_limit_respected(self):
        pool = Mempool()
        add_all(pool, [make_call(f"0xu{i}", fee=i) for i in range(10)])
        assert len(pool.select_by_fee(4)) == 4

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Mempool().select_by_fee(-1)

    def test_all_miners_pick_the_same_set(self):
        """The Sec. II-B pathology: greedy selection is identical across
        independent mempools holding the same transactions."""
        txs = [make_call(f"0xu{i}", fee=i % 7) for i in range(20)]
        pool_a, pool_b = Mempool(), Mempool()
        add_all(pool_a, txs)
        add_all(pool_b, list(reversed(txs)))
        ids_a = [tx.tx_id for tx in pool_a.select_by_fee(10)]
        ids_b = [tx.tx_id for tx in pool_b.select_by_fee(10)]
        assert ids_a == ids_b

    def test_selection_does_not_remove(self):
        pool = Mempool()
        pool.add(make_call("0xua"))
        pool.select_by_fee(1)
        assert len(pool) == 1


class TestIdSelection:
    def test_select_ids_skips_missing(self):
        pool = Mempool()
        present = make_call("0xua")
        pool.add(present)
        selected = pool.select_ids([present.tx_id, "gone"])
        assert selected == [present]

    def test_select_ids_preserves_order(self):
        pool = Mempool()
        txs = [make_call(f"0xu{i}") for i in range(3)]
        add_all(pool, txs)
        ids = [txs[2].tx_id, txs[0].tx_id]
        assert pool.select_ids(ids) == [txs[2], txs[0]]


class TestCachedRankedView:
    """The fee-ranked cache vs. a full sort of the pool, differentially."""

    def test_differential_random_workload(self):
        import random

        rng = random.Random(31)
        cached = Mempool()
        txs = [make_call(f"0xu{i}", fee=rng.randrange(1, 50)) for i in range(80)]
        for tx in txs:
            cached.add(tx)
            # Interleave selections, removals and re-adds so the cache
            # goes through build, insort, stale-skip and compaction.
            if rng.random() < 0.4:
                limit = rng.randrange(0, 20)
                assert cached.select_by_fee(limit) == (
                    fee_sorted(cached, limit)
                )
            if rng.random() < 0.3 and len(cached):
                victims = rng.sample(list(cached.pending()), k=1)
                cached.remove(victims[0].tx_id)
        assert cached.select_by_fee(100) == fee_sorted(cached, 100)

    def test_cache_survives_bulk_confirmation(self):
        pool = Mempool()
        txs = [make_call(f"0xu{i}", fee=i) for i in range(30)]
        add_all(pool, txs)
        pool.select_by_fee(5)  # build the cache
        pool.remove_confirmed({tx.tx_id for tx in txs[:20]})
        assert pool.select_by_fee(30) == fee_sorted(pool, 30)

    def test_add_after_cache_built_keeps_order(self):
        pool = Mempool()
        add_all(pool, [make_call(f"0xu{i}", fee=i) for i in range(10)])
        pool.select_by_fee(3)
        pool.add(make_call("0xnew", fee=100))
        assert pool.select_by_fee(1)[0].fee == 100
        assert pool.select_by_fee(11) == fee_sorted(pool, 11)
