"""The ledger: a fork-aware chain of blocks per shard.

Miners record blocks "locally in the form of linked lists, called ledgers"
(Sec. II-A). The ledger tracks every received block, applies the
longest-chain fork-choice rule used by PoW chains, and exposes the
statistics the evaluation needs: confirmed transactions, empty blocks and
stale (orphaned) blocks.

:meth:`Ledger.add_block` walks each head change once, over the reorged
branch delta only, and returns that walk as a :class:`HeadMove`: the
blocks that left the canonical chain and the blocks that joined it. The
same walk keeps a canonical-hash set and a confirmed-transaction
multiset current, so ``confirmed_tx_ids()`` is O(1) instead of an
O(chain) walk; the ledger tests hold both to a walk of
:meth:`Ledger.canonical_chain` kept in ``tests/``. Its confirm/unconfirm
transitions feed the protocol's :class:`ConfirmationTally`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.chain.block import Block
from repro.errors import LedgerError


class ConfirmationTally:
    """The :meth:`Ledger.watch`-ing ledgers' union of confirmed target
    txs, kept exact through confirms and reorgs: ``confirming`` counts
    each target's confirming ledgers, ``missing`` the targets none
    confirms. A dict ``edges`` collects each target whose membership
    flipped since it was emptied, with the shard of its latest flip; a
    target that flips back drops out."""

    __slots__ = ("confirming", "missing", "edges")

    def __init__(self, targets: Iterable[str]) -> None:
        self.confirming = dict.fromkeys(targets, 0)
        self.missing = len(self.confirming)
        self.edges: dict[str, int] | None = None

    def moved(self, tx_id: str, step: int, shard: int) -> None:
        """A shard-``shard`` ledger confirmed (``step=1``) or unconfirmed
        (-1) ``tx_id``."""
        count = self.confirming.get(tx_id)
        if count is None:
            return
        new = count + step
        self.confirming[tx_id] = new
        if count and new:
            return  # still confirmed elsewhere: the union did not move
        self.missing += (not new) - (not count)
        edges = self.edges
        if edges is not None and edges.pop(tx_id, None) is None:
            edges[tx_id] = shard


class HeadMove(NamedTuple):
    """One head change: ``left`` the canonical chain (newest first),
    ``joined`` it (oldest first). A tip extension leaves nothing."""

    left: list[Block]
    joined: list[Block]


@dataclass(slots=True)
class _ChainEntry:
    block: Block
    height: int
    parent: str | None


class Ledger:
    """A per-shard block store with longest-chain fork choice.

    The ledger accepts any block whose parent it knows (forks included)
    and keeps the head at the tip of the longest chain, breaking ties by
    earliest arrival — the behaviour that makes simultaneous duplicate
    blocks from fee-greedy miners waste work (Table I's saturation).
    """

    def __init__(self, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        genesis = Block.genesis(shard_id)
        genesis_hash = genesis.block_hash
        self._entries: dict[str, _ChainEntry] = {
            genesis_hash: _ChainEntry(block=genesis, height=0, parent=None)
        }
        self._genesis_hash = genesis_hash
        self._head_hash = genesis_hash
        self._arrival_order: dict[str, int] = {genesis_hash: 0}
        self._arrivals = 1
        # Incremental canonical-chain views, updated on every head change.
        self._canonical: set[str] = {genesis_hash}
        self._confirmed_counts: dict[str, int] = {}
        self._confirmed_ids: set[str] = set()
        self._tally: ConfirmationTally | None = None

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> HeadMove | None:
        """Insert a block; returns the head move it caused, else ``None``.

        Raises :class:`LedgerError` when the parent is unknown or the
        block was already inserted.
        """
        block_hash = block.block_hash
        if block_hash in self._entries:
            raise LedgerError(f"duplicate block {block_hash[:10]}")
        parent = block.header.parent_hash
        if parent not in self._entries:
            raise LedgerError(
                f"block {block_hash[:10]} references unknown parent {parent[:10]}"
            )
        height = self._entries[parent].height + 1
        self._entries[block_hash] = _ChainEntry(
            block=block, height=height, parent=parent
        )
        self._arrival_order[block_hash] = self._arrivals
        self._arrivals += 1

        head_height = self._entries[self._head_hash].height
        if height > head_height:
            old_head = self._head_hash
            self._head_hash = block_hash
            if parent == old_head:
                # Plain tip extension: one canonical block to add.
                self._canonical.add(block_hash)
                self._add_confirmed(block)
                return HeadMove([], [block])
            return self._reorg_canonical(old_head, block_hash)
        return None

    def _add_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        tally = self._tally
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts.get(tx_id, 0) + 1
            counts[tx_id] = new
            if new == 1:
                confirmed.add(tx_id)
                if tally is not None:
                    tally.moved(tx_id, 1, self.shard_id)

    def _remove_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        tally = self._tally
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts[tx_id] - 1
            if new:
                counts[tx_id] = new
            else:
                del counts[tx_id]
                confirmed.discard(tx_id)
                if tally is not None:
                    tally.moved(tx_id, -1, self.shard_id)

    def _reorg_canonical(self, old_head: str, new_head: str) -> HeadMove:
        """Rebase the canonical views across a fork switch.

        Walks the new branch back to the first block that is already
        canonical (the fork point), then unwinds the old branch down to
        it — touching only the branch delta, never the shared prefix.
        """
        entries = self._entries
        canonical = self._canonical
        # New-branch suffix, tip first.
        joined: list[Block] = []
        cursor = new_head
        while cursor not in canonical:
            entry = entries[cursor]
            joined.append(entry.block)
            cursor = entry.parent
        fork_point = cursor
        # Unwind the old branch down to the fork point.
        left: list[Block] = []
        cursor = old_head
        while cursor != fork_point:
            entry = entries[cursor]
            canonical.discard(cursor)
            self._remove_confirmed(entry.block)
            left.append(entry.block)
            cursor = entry.parent
        # Connect the new branch, oldest first.
        joined.reverse()
        for block in joined:
            canonical.add(block.block_hash)
            self._add_confirmed(block)
        return HeadMove(left, joined)

    def watch(self, tally: ConfirmationTally) -> None:
        """Report confirm/unconfirm transitions to ``tally`` from now on."""
        self._tally = tally
        for tx_id in self._confirmed_ids:
            tally.moved(tx_id, 1, self.shard_id)

    def knows(self, block_hash: str) -> bool:
        return block_hash in self._entries

    # ------------------------------------------------------------------
    # chain views
    # ------------------------------------------------------------------
    @property
    def head_hash(self) -> str:
        return self._head_hash

    @property
    def genesis_hash(self) -> str:
        return self._genesis_hash

    @property
    def height(self) -> int:
        """Height of the canonical chain head (genesis = 0)."""
        return self._entries[self._head_hash].height

    def block(self, block_hash: str) -> Block:
        """Look up a known block by hash."""
        try:
            return self._entries[block_hash].block
        except KeyError:
            raise LedgerError(f"unknown block {block_hash[:10]}") from None

    def canonical_chain(self) -> list[Block]:
        """The canonical chain, genesis first."""
        chain: list[Block] = []
        cursor: str | None = self._head_hash
        while cursor is not None:
            entry = self._entries[cursor]
            chain.append(entry.block)
            cursor = entry.parent
        chain.reverse()
        return chain

    def all_blocks(self) -> list[Block]:
        """Every block ever inserted, including orphans (genesis first)."""
        ordered = sorted(self._arrival_order.items(), key=lambda item: item[1])
        return [self._entries[block_hash].block for block_hash, __ in ordered]

    # ------------------------------------------------------------------
    # statistics used by the evaluation
    # ------------------------------------------------------------------
    def confirmed_transactions(self) -> list:
        """Transactions on the canonical chain, oldest block first."""
        txs = []
        for block in self.canonical_chain():
            txs.extend(block.transactions)
        return txs

    def confirmed_tx_ids(self) -> set[str]:
        """Ids of every transaction on the canonical chain — O(1).

        Returns the ledger's incrementally-maintained view; treat it as
        read-only (copy before mutating).
        """
        return self._confirmed_ids

    def count_stale_blocks(self) -> int:
        """Blocks that lost the fork race (mined but not canonical)."""
        canonical = self._canonical
        return sum(1 for h in self._entries if h not in canonical)
