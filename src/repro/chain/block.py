"""Blocks.

A block header carries the fields the paper's protocol inspects when a
miner receives a block (Sec. III-C): the packing miner's public key, the
**ShardID** the miner claims, the parent hash and a Merkle commitment to
the body. The body is the ordered transaction list; an *empty block* —
central to the inter-shard merging evaluation — is simply a block with no
transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.chain.transaction import Transaction
from repro.crypto.hashing import hash_items
from repro.crypto.merkle import MerkleTree

GENESIS_PARENT = "0" * 64


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header."""

    parent_hash: str
    miner: str
    shard_id: int
    height: int
    timestamp: float
    tx_root: str
    nonce: int = 0

    def block_hash(self) -> str:
        """The block id: a hash over every header field."""
        return hash_items(
            [
                self.parent_hash,
                self.miner,
                self.shard_id,
                self.height,
                self.timestamp,
                self.tx_root,
                self.nonce,
            ],
            domain="block-header",
        )


@dataclass(frozen=True)
class Block:
    """A block: header plus ordered transaction body."""

    header: BlockHeader
    transactions: tuple[Transaction, ...] = ()

    @classmethod
    def build(
        cls,
        parent_hash: str,
        miner: str,
        shard_id: int,
        height: int,
        timestamp: float,
        transactions: list[Transaction] | tuple[Transaction, ...] = (),
        nonce: int = 0,
    ) -> "Block":
        """Assemble a block, computing the Merkle commitment for the body."""
        txs = tuple(transactions)
        tree = MerkleTree([tx.tx_id for tx in txs])
        header = BlockHeader(
            parent_hash=parent_hash,
            miner=miner,
            shard_id=shard_id,
            height=height,
            timestamp=timestamp,
            tx_root=tree.root,
            nonce=nonce,
        )
        block = cls(header=header, transactions=txs)
        # The root was just computed from this very body.
        block.__dict__["_commits_to_body"] = True
        return block

    @classmethod
    def genesis(cls, shard_id: int = 0) -> "Block":
        """The shard's genesis block (no miner, no transactions)."""
        return cls.build(
            parent_hash=GENESIS_PARENT,
            miner="genesis",
            shard_id=shard_id,
            height=0,
            timestamp=0.0,
        )

    @cached_property
    def block_hash(self) -> str:
        """The header hash, computed once per block object.

        A broadcast shares one :class:`Block` instance across every
        receiver, so caching here turns N×(ledger inserts + orphan
        checks) hash recomputations into one.
        """
        return self.header.block_hash()

    @property
    def is_empty(self) -> bool:
        """Whether the block confirms no transactions (wasted mining power)."""
        return not self.transactions

    @property
    def total_fees(self) -> int:
        """Sum of transaction fees the packing miner collects."""
        return sum(tx.fee for tx in self.transactions)

    def commits_to_body(self) -> bool:
        """Verify the header's Merkle root matches the body.

        Memoized on the (immutable) instance: every receiver of a
        broadcast block runs this check, but the Merkle tree only needs
        to be rebuilt once per block object, and not at all for one
        :meth:`build` made.
        """
        cached = self.__dict__.get("_commits_to_body")
        if cached is None:
            tree = MerkleTree([tx.tx_id for tx in self.transactions])
            cached = tree.root == self.header.tx_root
            # Direct __dict__ write: the dataclass is frozen, but the
            # memo is derived state, not a field (and excluded from ==).
            self.__dict__["_commits_to_body"] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Block(h={self.header.height}, shard={self.header.shard_id}, "
            f"miner={self.header.miner[:8]}, txs={len(self.transactions)})"
        )
