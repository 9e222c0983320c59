"""The ledger: a fork-aware chain of blocks per shard.

Miners record blocks "locally in the form of linked lists, called ledgers"
(Sec. II-A). The ledger tracks every received block, applies the
longest-chain fork-choice rule used by PoW chains, and exposes the
statistics the evaluation needs: confirmed transactions, empty blocks and
stale (orphaned) blocks.

The canonical-chain views are maintained **incrementally**: every head
change updates a canonical-hash set and a confirmed-transaction multiset
by walking only the reorged branch delta, so ``confirmed_tx_ids()`` is
O(1) instead of an O(chain) walk. Protocol stop conditions poll that
view after *every* event, which made the full scan accidentally
quadratic. The ledger tests hold the view to a walk of
:meth:`Ledger.canonical_chain` kept in ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import Block, GENESIS_PARENT
from repro.errors import LedgerError


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
        self._version = 0

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> bool:
        """Insert a block; returns True iff it became the new head.

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
            else:
                self._reorg_canonical(old_head, block_hash)
            self._version += 1
            return True
        return False

    def _add_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts.get(tx_id, 0) + 1
            counts[tx_id] = new
            if new == 1:
                confirmed.add(tx_id)

    def _remove_confirmed(self, block: Block) -> None:
        counts = self._confirmed_counts
        confirmed = self._confirmed_ids
        for tx in block.transactions:
            tx_id = tx.tx_id
            new = counts[tx_id] - 1
            if new:
                counts[tx_id] = new
            else:
                del counts[tx_id]
                confirmed.discard(tx_id)

    def _reorg_canonical(self, old_head: str, new_head: str) -> None:
        """Rebase the canonical views across a fork switch.

        Walks the new branch back to the first block that is already
        canonical (the fork point), then unwinds the old branch down to
        it — touching only the branch delta, never the shared prefix.
        """
        entries = self._entries
        canonical = self._canonical
        # New-branch suffix, tip first.
        suffix: list[tuple[str, _ChainEntry]] = []
        cursor = new_head
        while cursor not in canonical:
            entry = entries[cursor]
            suffix.append((cursor, entry))
            cursor = entry.parent
        fork_point = cursor
        # Unwind the old branch down to the fork point.
        cursor = old_head
        while cursor != fork_point:
            entry = entries[cursor]
            canonical.discard(cursor)
            self._remove_confirmed(entry.block)
            cursor = entry.parent
        # Connect the new branch, oldest first.
        for block_hash, entry in reversed(suffix):
            canonical.add(block_hash)
            self._add_confirmed(entry.block)

    def knows(self, block_hash: str) -> bool:
        return block_hash in self._entries

    # ------------------------------------------------------------------
    # chain views
    # ------------------------------------------------------------------
    @property
    def head(self) -> Block:
        """The block at the tip of the canonical (longest) chain."""
        return self._entries[self._head_hash].block

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

    @property
    def version(self) -> int:
        """Monotone counter bumped on every head change.

        Lets callers cache derived views (confirmed unions, stop
        conditions) and refresh them only when some chain actually
        moved, instead of recomputing after every event.
        """
        return self._version

    def block(self, block_hash: str) -> Block:
        """Look up a known block by hash."""
        try:
            return self._entries[block_hash].block
        except KeyError:
            raise LedgerError(f"unknown block {block_hash[:10]}") from None

    def parent_of(self, block_hash: str) -> str | None:
        """Parent hash of a known block (None for genesis)."""
        try:
            return self._entries[block_hash].parent
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

    def canonical_hashes(self) -> set[str]:
        """Hashes of every block on the canonical chain."""
        return set(self._canonical)

    def is_canonical(self, block_hash: str) -> bool:
        """Whether a block is on the canonical chain — O(1)."""
        return block_hash in self._canonical

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

    def count_empty_blocks(self, *, canonical_only: bool = True) -> int:
        """Number of empty non-genesis blocks (the wasted-power metric)."""
        blocks = self.canonical_chain() if canonical_only else self.all_blocks()
        return sum(
            1 for block in blocks if block.is_empty and block.header.height > 0
        )

    def count_stale_blocks(self) -> int:
        """Blocks that lost the fork race (mined but not canonical)."""
        canonical = self._canonical
        return sum(1 for h in self._entries if h not in canonical)
