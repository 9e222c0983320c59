"""The mempool: unvalidated transactions a miner tracks.

"Miners in a blockchain system keep track of unvalidated transactions ...
miners always select transactions with the highest fees" (Sec. II-B). The
mempool therefore offers fee-ordered selection (the serializing behaviour
the paper criticises) alongside plain set operations the sharding core
uses to install game-assigned selections.

``select_by_fee`` used to re-sort the whole pool on every call — one
full O(P log P) sort per mining event. The pool now keeps a cached
fee-ranked view: built lazily on first selection, maintained by ordered
insertion on :meth:`add`, and invalidated *lazily* on removal (selection
skips entries that left the pool; the view is compacted once more than
half of it is stale). The mempool tests hold it to a plain full sort
of the pool kept in ``tests/``.

Streaming campaigns bound the pool: ``limit=`` caps the resident
transaction count, and admission beyond it evicts the lowest-fee
resident (ties broken by tx id, so every node evicts identically).
An incoming transaction that would itself be the eviction victim is
refused outright. Both outcomes count in :attr:`Mempool.evictions` —
a capacity limit that fails loudly in the run report, never silently.
"""

from __future__ import annotations

from bisect import insort_right

from repro.chain.transaction import Transaction
from repro.errors import ConfigError


def _fee_rank(tx: Transaction) -> tuple[int, str]:
    """Sort key: highest fee first, ties broken by tx id."""
    return (-tx.fee, tx.tx_id)


class Mempool:
    """An ordered pool of pending transactions.

    ``limit`` bounds the resident pool (``None`` = unbounded). The
    eviction rule is deterministic — drop the worst ``(-fee, tx_id)``
    entry, which may be the incoming transaction itself — so two nodes
    seeing the same admission sequence hold the same pool.
    """

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit <= 0:
            raise ConfigError(f"mempool limit must be positive: got {limit}")
        self._pool: dict[str, Transaction] = {}
        self._limit = limit
        #: How many admissions the bound turned away (evicted resident
        #: or refused incoming) — surfaced as ``ProtocolResult.evicted``.
        self.evictions = 0
        #: High-water mark of resident transactions — the per-shard
        #: mempool pressure signal telemetry reports.
        self.peak = 0
        # The ranked view: pool transactions in (-fee, tx_id) order plus
        # up to ``_ranked_stale`` entries that already left the pool.
        self._ranked: list[Transaction] | None = None
        self._ranked_stale = 0

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pool

    @property
    def limit(self) -> int | None:
        return self._limit

    def add(self, tx: Transaction) -> bool:
        """Insert a transaction; returns False when already present.

        At capacity the lowest-fee entry loses its seat: either the
        worst resident is evicted to admit ``tx``, or ``tx`` itself is
        refused because it ranks at (or below) the worst resident.
        """
        if tx.tx_id in self._pool:
            return False
        if self._limit is not None and len(self._pool) >= self._limit:
            worst = self._worst_resident()
            if _fee_rank(tx) >= _fee_rank(worst):
                # The incoming tx would be the immediate victim.
                self.evictions += 1
                return False
            self._evict(worst)
        self._pool[tx.tx_id] = tx
        if len(self._pool) > self.peak:
            self.peak = len(self._pool)
        if self._ranked is not None:
            self._insert_ranked(tx)
        return True

    def _insert_ranked(self, tx: Transaction) -> None:
        """Ordered insert that revives a stale copy instead of duplicating.

        A transaction removed and later re-added (faulty-network
        re-pooling) still has its old entry in the ranked view; naively
        insorting would leave two live-looking copies of the same key
        and over-count ``_ranked_stale`` forever. The dataclass is
        frozen, so the stale object *is* the live one — finding an
        equal-key entry just cancels one unit of staleness.
        """
        ranked = self._ranked
        assert ranked is not None
        if self._ranked_stale:
            rank = _fee_rank(tx)
            lo, hi = 0, len(ranked)
            while lo < hi:
                mid = (lo + hi) // 2
                if _fee_rank(ranked[mid]) < rank:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < len(ranked) and ranked[lo].tx_id == tx.tx_id:
                self._ranked_stale -= 1
                return
            ranked.insert(lo, tx)
            return
        insort_right(ranked, tx, key=_fee_rank)

    def _worst_resident(self) -> Transaction:
        """The resident with the maximal ``(-fee, tx_id)`` rank.

        Served from the tail of the ranked view when it exists; stale
        tail entries are physically dropped on the way (each one
        decrements ``_ranked_stale``, keeping the lazy-compaction
        counter exact — see the eviction/compaction interaction test).
        """
        ranked = self._ranked
        if ranked is None:
            return max(self._pool.values(), key=_fee_rank)
        pool = self._pool
        while ranked:
            tail = ranked[-1]
            if tail.tx_id in pool:
                return tail
            ranked.pop()
            self._ranked_stale -= 1
        raise RuntimeError("ranked view empty while pool is non-empty")

    def _evict(self, tx: Transaction) -> None:
        """Drop a resident chosen by the bound, keeping counters exact.

        The ranked tail entry (when cached) is removed *physically*, not
        via :meth:`_note_removed` — marking it stale instead would leave
        ``_ranked_stale`` over-counting entries the tail scan already
        dropped and let :meth:`select_by_fee` serve from an
        under-compacted view.
        """
        del self._pool[tx.tx_id]
        self.evictions += 1
        ranked = self._ranked
        if ranked is not None and ranked and ranked[-1].tx_id == tx.tx_id:
            ranked.pop()
        elif ranked is not None:
            # Eviction without the cache positioned at the tail (the
            # entry sits mid-view behind stale ones): lazy-invalidate.
            self._note_removed(1)

    def add_many(self, txs: list[Transaction]) -> int:
        """Insert many transactions; returns how many were new."""
        return sum(1 for tx in txs if self.add(tx))

    def remove(self, tx_id: str) -> Transaction | None:
        """Remove and return a transaction, or None when absent."""
        removed = self._pool.pop(tx_id, None)
        if removed is not None:
            self._note_removed(1)
        return removed

    def remove_confirmed(self, tx_ids: set[str]) -> int:
        """Drop every transaction confirmed elsewhere; returns the count."""
        present = tx_ids & self._pool.keys()
        for tx_id in present:
            del self._pool[tx_id]
        self._note_removed(len(present))
        return len(present)

    def _note_removed(self, count: int) -> None:
        """Lazy invalidation: removed entries stay in the ranked view
        (selection skips them) until they outnumber the live half."""
        if self._ranked is None or count == 0:
            return
        self._ranked_stale += count
        if self._ranked_stale * 2 > len(self._ranked):
            pool = self._pool
            self._ranked = [tx for tx in self._ranked if tx.tx_id in pool]
            self._ranked_stale = 0

    def pending(self) -> list[Transaction]:
        """All pending transactions in insertion order."""
        return list(self._pool.values())

    def select_by_fee(self, limit: int) -> list[Transaction]:
        """The fee-greedy selection every miner defaults to (Sec. II-B).

        Ties break on tx id so that *all* miners produce the identical
        ordering — exactly the duplicated-selection pathology the paper's
        congestion game removes. Served from the cached ranked view.
        """
        if limit < 0:
            raise ValueError("selection limit must be non-negative")
        ranked = self._ranked
        if ranked is None:
            ranked = self._ranked = sorted(self._pool.values(), key=_fee_rank)
            self._ranked_stale = 0
        if not self._ranked_stale:
            return ranked[:limit]
        pool = self._pool
        picked: list[Transaction] = []
        for tx in ranked:
            if len(picked) >= limit:
                break
            if tx.tx_id in pool:
                picked.append(tx)
        return picked

    def select_ids(self, tx_ids: list[str]) -> list[Transaction]:
        """Materialise a game-assigned selection, skipping confirmed ids."""
        return [self._pool[tx_id] for tx_id in tx_ids if tx_id in self._pool]

    def clear(self) -> None:
        self._pool.clear()
        self._ranked = None
        self._ranked_stale = 0

    def total_fees(self) -> int:
        """Sum of pending fees (the congestion game's resource pool)."""
        return sum(tx.fee for tx in self._pool.values())
