"""Batch admission equals a loop of ``Mempool.add``.

``Mempool.admit`` writes the fresh transactions that fit under the limit
in one pass and sends the rest through ``add``. Over random pools,
limits, batches with duplicates and ranked views that are absent, fresh
or holding stale entries, the two must leave pools that nothing outside
can tell apart: the same admitted list, pending order, fee selection
(also after later removals and adds), eviction count and peak.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.mempool import Mempool
from tests.chain.test_mempool_bound import _assert_cache_consistent
from tests.conftest import make_call

UNIVERSE = 12

indices = st.integers(min_value=0, max_value=UNIVERSE - 1)


@st.composite
def scenarios(draw):
    return {
        # Few distinct fees, so ties break on tx id.
        "fees": draw(st.lists(st.integers(1, 4), min_size=UNIVERSE, max_size=UNIVERSE)),
        "limit": draw(st.none() | st.integers(1, 6)),
        "resident": draw(st.lists(indices, max_size=8)),
        "view": draw(st.sampled_from(["absent", "fresh", "stale"])),
        "removed": draw(st.lists(indices, max_size=4)),
        "batch": draw(st.lists(indices, max_size=14)),
        "later_removed": draw(st.lists(indices, max_size=4)),
        "later_added": draw(st.lists(indices, max_size=4)),
    }


def _observed(pool: Mempool) -> tuple:
    return (
        [tx.tx_id for tx in pool.pending()],
        [
            [tx.tx_id for tx in pool.select_by_fee(k)]
            for k in range(len(pool) + 2)
        ],
        pool.evictions,
        pool.peak,
    )


def _prepared(s: dict, txs: list) -> Mempool:
    pool = Mempool(limit=s["limit"])
    for i in s["resident"]:
        pool.add(txs[i])
    if s["view"] != "absent":
        pool.select_by_fee(1)
    if s["view"] == "stale":
        for i in s["removed"]:
            pool.remove(txs[i].tx_id)
    return pool


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_admit_matches_sequential_add(s):
    txs = [make_call(f"0xu{i}", fee=fee) for i, fee in enumerate(s["fees"])]
    batched, looped = _prepared(s, txs), _prepared(s, txs)
    batch = [txs[i] for i in s["batch"]]

    admitted = batched.admit(batch)
    added = [tx for tx in batch if looped.add(tx)]

    assert admitted == added
    assert _observed(batched) == _observed(looped)
    _assert_cache_consistent(batched)
    for i in s["later_removed"]:
        batched.remove(txs[i].tx_id)
        looped.remove(txs[i].tx_id)
    for i in s["later_added"]:
        assert batched.add(txs[i]) == looped.add(txs[i])
    assert _observed(batched) == _observed(looped)
    _assert_cache_consistent(batched)


def test_admit_past_the_limit_evicts_through_add():
    low, mid, high = (make_call(f"0xu{fee}", fee=fee) for fee in (1, 5, 9))
    pool = Mempool(limit=2)
    assert pool.admit([low, mid, low, high]) == [low, mid, high]
    assert [tx.tx_id for tx in pool.pending()] == [mid.tx_id, high.tx_id]
    assert pool.evictions == 1
    assert pool.peak == 2
