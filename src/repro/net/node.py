"""Full nodes: the per-miner workflow of Sec. III-C.

A :class:`FullNode` owns the local ledger, world-state view and mempool
of one miner. It implements the receive-side protocol exactly as the
paper describes it:

* on a transaction — check whether the sender belongs to this node's
  shard (via the classifier it was built with) and pool it so; a
  transaction already routed to this shard goes straight to
  :meth:`FullNode.pool`;
* on a block — run the two verifications (packer really in the claimed
  shard; claimed shard == own shard), then record, apply and de-pool.

The world-state bookkeeping is **tip-delta**: every applied canonical
block leaves a :class:`~repro.chain.state.BlockUndo` journal entry, so a
reorg unwinds only the losing branch and applies only the winning one —
O(reorg depth) instead of a replay-from-genesis O(chain) rebuild.
:meth:`FullNode.state_oracle_fingerprint` still replays from the
pre-genesis snapshot, so tests can check the journaled state against
it; the recorded digests in ``tests/sim/seed_digests.json`` pin the
runs themselves.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import BlockUndo, WorldState
from repro.chain.transaction import Transaction
from repro.chain.validation import BlockValidator, BlockVerdict
from repro.consensus.miner import (
    HonestBehavior,
    MinerBehavior,
    MinerIdentity,
    SoloFallbackBehavior,
)
from repro.errors import LedgerError
from repro.net.messages import Message, MessageKind

# Which shard does a transaction belong to? (None = not this node's business.)
TxShardClassifier = Callable[[Transaction], int | None]


class Node(abc.ABC):
    """Anything addressable on the network."""

    __slots__ = ()

    @property
    @abc.abstractmethod
    def node_id(self) -> str:
        """The network address (we use the miner's public key)."""

    @abc.abstractmethod
    def receive(self, message: Message) -> None:
        """Handle one delivered message."""


@dataclass
class NodeStats:
    """Receive-side counters for one node."""

    txs_pooled: int = 0
    txs_ignored: int = 0
    blocks_recorded: int = 0
    blocks_foreign: int = 0
    blocks_rejected: int = 0
    rejection_reasons: list[str] = field(default_factory=list)
    # failure-hardening counters
    orphans_buffered: int = 0
    orphans_connected: int = 0
    packets_accepted: int = 0
    packets_rejected: int = 0
    leader_fallbacks: int = 0


class FullNode(Node):
    """One miner's ledger, world state, mempool and protocol behavior."""

    __slots__ = (
        "identity",
        "shard_id",
        "behavior",
        "mempool",
        "ledger",
        "state",
        "stats",
        "_behavior_overridden",
        "_pristine_state",
        "_tx_classifier",
        "_block_validator",
        "_selection_replay",
        "_packet_commitment",
        "_orphans",
        "_orphan_count",
        "_applied",
        "_applied_index",
        "on_pooled",
        "on_rejected",
    )

    #: Cap on buffered out-of-order blocks (drop-oldest beyond this).
    MAX_ORPHANS = 64

    def __init__(
        self,
        identity: MinerIdentity,
        shard_id: int,
        membership_verifier: Callable[[str, int], bool],
        tx_classifier: TxShardClassifier,
        behavior: MinerBehavior | None = None,
        state: WorldState | None = None,
        selection_replay: object | None = None,
        packet_commitment: str | None = None,
        mempool_limit: int | None = None,
    ) -> None:
        self.identity = identity
        self.shard_id = shard_id
        self._behavior_overridden = behavior is not None
        self.behavior = behavior or HonestBehavior()
        self.mempool = Mempool(limit=mempool_limit)
        self.ledger = Ledger(shard_id=shard_id)
        self.state = state if state is not None else WorldState()
        # Pre-genesis snapshot: the base of the from-scratch replay in
        # state_oracle_fingerprint().
        self._pristine_state = self.state.snapshot()
        self.stats = NodeStats()
        self._tx_classifier = tx_classifier
        self._block_validator = BlockValidator(
            own_shard=shard_id, membership_verifier=membership_verifier
        )
        # Sec. IV-C enforcement: when a UnifiedReplay is installed, blocks
        # that deviate from the unified transaction selection are rejected
        # exactly like shard-membership liars.
        self._selection_replay = selection_replay
        # The publicly known digest of the canonical unification packet;
        # leader broadcasts whose digest mismatches it are rejected.
        self._packet_commitment = packet_commitment
        # Blocks whose parent has not arrived yet, keyed by parent hash.
        # Delay spikes and duplicate/drop races reorder gossip; buffering
        # lets the chain heal once the missing parent shows up.
        self._orphans: dict[str, list[Block]] = {}
        self._orphan_count = 0
        # Tip-delta state: the applied canonical suffix as (hash, undo)
        # pairs plus a hash -> position index for O(1) fork-point lookup.
        self._applied: list[tuple[str, BlockUndo]] = []
        self._applied_index: dict[str, int] = {}
        # Lineage hook: called as ``on_pooled(node, tx)`` whenever a
        # transaction enters this node's mempool. Installed by the
        # protocol simulation only when lineage tracing is on, so the
        # common path pays a single None check per pooled transaction.
        self.on_pooled: Callable[["FullNode", Transaction], None] | None = None
        # Forensic hook: called as ``on_rejected(node, block, reason)``
        # whenever this node rejects a block (membership liar, selection
        # deviation). Installed by the protocol simulation only when
        # lineage tracing is on — the detection-latency signal of the
        # adversarial scenario suite.
        self.on_rejected: Callable[["FullNode", Block, str], None] | None = None

    # ------------------------------------------------------------------
    # Node protocol
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> str:
        return self.identity.public

    def receive(self, message: Message) -> None:
        kind = message.kind
        if kind is MessageKind.TX:
            self.on_transaction(message.payload)
        elif kind is MessageKind.BLOCK:
            self.on_block(message.payload)
        elif kind is MessageKind.LEADER_BROADCAST:
            self.on_unification_packet(message.payload)
        # Other kinds (stat reports etc.) are consumed by the coordinator
        # layer; a bare full node ignores them.

    # ------------------------------------------------------------------
    # transaction path
    # ------------------------------------------------------------------
    def on_transaction(self, tx: Transaction) -> bool:
        """Pool a delivered transaction iff it belongs to this node's shard."""
        if self._tx_classifier(tx) != self.shard_id:
            self.stats.txs_ignored += 1
            return False
        return self.pool(tx)

    def pool(self, tx: Transaction) -> bool:
        """Pool a transaction already routed to this shard, unclassified.

        False when the mempool refuses it (duplicate, or outbid when full).
        """
        if not self.mempool.add(tx):
            return False
        self.stats.txs_pooled += 1
        if self.on_pooled is not None:
            self.on_pooled(self, tx)
        return True

    # ------------------------------------------------------------------
    # block path (the two Sec. III-C verifications)
    # ------------------------------------------------------------------
    def on_block(self, block: Block) -> BlockVerdict:
        """Inspect, and when appropriate record, an incoming block."""
        verdict = self._block_validator.inspect(block)
        if not verdict.accepted:
            self.stats.blocks_rejected += 1
            self.stats.rejection_reasons.append(verdict.reason)
            if self.on_rejected is not None:
                self.on_rejected(self, block, verdict.reason)
            return verdict
        if not verdict.recorded:
            self.stats.blocks_foreign += 1
            return verdict
        if self._selection_replay is not None and not (
            self._selection_replay.block_follows_selection(block)
        ):
            self.stats.blocks_rejected += 1
            reason = (
                f"miner {block.header.miner[:10]} deviated from the unified "
                f"transaction selection"
            )
            self.stats.rejection_reasons.append(reason)
            if self.on_rejected is not None:
                self.on_rejected(self, block, reason)
            return BlockVerdict(accepted=False, recorded=False, reason=reason)
        self._record_block(block)
        return verdict

    def _record_block(self, block: Block) -> None:
        if self.ledger.knows(block.block_hash):
            # Duplicate (gossip redundancy): drop silently.
            return
        if not self.ledger.knows(block.header.parent_hash):
            # Out-of-order arrival (delay spike, dropped-then-retransmitted
            # parent): hold the block until its parent connects.
            self._buffer_orphan(block)
            return
        old_head = self.ledger.head_hash
        try:
            self.ledger.add_block(block)
        except LedgerError:
            return
        new_head = self.ledger.head_hash
        if new_head == block.block_hash and block.header.parent_hash == old_head:
            # Plain canonical extension: apply incrementally, journaled
            # so a later reorg can unwind it in O(1) per block.
            self._apply_canonical_block(block)
            self.mempool.remove_confirmed(
                {tx.tx_id for tx in block.transactions}
            )
        elif new_head != old_head:
            self._apply_reorg(new_head)
        # A side-branch block leaves the state untouched: the flat state
        # tracks the canonical chain only, otherwise transactions confirmed
        # on a losing branch would poison sender nonces and never mine.
        self.stats.blocks_recorded += 1
        self._connect_orphans(block.block_hash)

    def _apply_canonical_block(self, block: Block) -> None:
        """Apply one block at the tip, journaling its inverse."""
        undo = BlockUndo()
        self.state.apply_block_body(
            block.transactions, miner=block.header.miner, journal=undo
        )
        self._applied_index[block.block_hash] = len(self._applied)
        self._applied.append((block.block_hash, undo))

    def _apply_reorg(self, new_head: str) -> None:
        """Tip-delta reorg: unwind to the fork point, apply the winner.

        Leaves the same state as a replay of the canonical chain from
        genesis (:meth:`state_oracle_fingerprint`) but touches only the
        branch delta: undo journals revert the losing suffix, then the
        winning suffix is applied in order. Newly canonical transactions
        are de-pooled; reverted ones are *not* re-pooled.
        """
        ledger = self.ledger
        index = self._applied_index
        applied = self._applied
        genesis = ledger.genesis_hash
        # Winning suffix: new head back to the deepest applied ancestor.
        suffix: list[Block] = []
        cursor = new_head
        while cursor != genesis and cursor not in index:
            block = ledger.block(cursor)
            suffix.append(block)
            cursor = block.header.parent_hash
        fork_pos = index.get(cursor, -1)
        # Unwind the losing suffix, newest first.
        for block_hash, undo in reversed(applied[fork_pos + 1:]):
            self.state.revert_block_body(undo)
            del index[block_hash]
        del applied[fork_pos + 1:]
        # Apply the winning suffix, oldest first.
        confirmed: set[str] = set()
        state = self.state
        for block in reversed(suffix):
            undo = BlockUndo()
            state.apply_block_body(
                block.transactions, miner=block.header.miner, journal=undo
            )
            index[block.block_hash] = len(applied)
            applied.append((block.block_hash, undo))
            confirmed.update(tx.tx_id for tx in block.transactions)
        self.mempool.remove_confirmed(confirmed)

    def state_oracle_fingerprint(self) -> str:
        """Fingerprint of a from-scratch canonical replay (the oracle).

        Never touches the live state; differential tests compare this
        against ``self.state.fingerprint()`` after tip-delta runs.
        """
        state = self._pristine_state.snapshot()
        for canonical in self.ledger.canonical_chain():
            if canonical.transactions:
                state.apply_block_body(
                    canonical.transactions, miner=canonical.header.miner
                )
        return state.fingerprint()

    def _buffer_orphan(self, block: Block) -> None:
        parent = block.header.parent_hash
        siblings = self._orphans.get(parent, [])
        if any(b.block_hash == block.block_hash for b in siblings):
            return
        if self._orphan_count >= self.MAX_ORPHANS:
            # Evict the oldest buffered parent group to stay bounded.
            oldest_parent = next(iter(self._orphans))
            self._orphan_count -= len(self._orphans.pop(oldest_parent))
        self._orphans.setdefault(parent, []).append(block)
        self._orphan_count += 1
        self.stats.orphans_buffered += 1

    def _connect_orphans(self, parent_hash: str) -> None:
        children = self._orphans.pop(parent_hash, None)
        if not children:
            return
        self._orphan_count -= len(children)
        for child in children:
            self.stats.orphans_connected += 1
            self._record_block(child)

    # ------------------------------------------------------------------
    # unification-packet path (leader broadcast, Sec. IV-C hardened)
    # ------------------------------------------------------------------
    def on_unification_packet(self, packet) -> bool:
        """Verify and install a leader-broadcast unification packet.

        The packet digest must match the publicly known commitment; a
        mismatch (tampered relay, equivocating leader) is rejected and
        counted. On acceptance the node builds the local replay and — if
        the selection game assigned it a transaction set — adopts the
        game-assigned packing behavior. The digest is memoized on the
        packet, so retransmitted copies of the same object cost a dict
        hit instead of a full recomputation.
        """
        from repro.core.unification import UnifiedReplay

        if (
            self._packet_commitment is not None
            and packet.digest() != self._packet_commitment
        ):
            self.stats.packets_rejected += 1
            return False
        self.stats.packets_accepted += 1
        if self._selection_replay is not None:
            # Retransmitted duplicate of an already-installed packet.
            return True
        replay = UnifiedReplay(packet)
        self._selection_replay = replay
        if not self._behavior_overridden:
            from repro.consensus.miner import AssignedSelectionBehavior
            from repro.errors import UnificationError

            try:
                assigned = replay.assigned_tx_ids(self.shard_id, self.node_id)
            except UnificationError:
                # Solo or empty shard: no game ran, keep fee-greedy packing.
                return True
            self.behavior = AssignedSelectionBehavior(list(assigned))
        return True

    @property
    def has_unified_replay(self) -> bool:
        return self._selection_replay is not None

    def fallback_to_solo(self) -> bool:
        """Leader-silence fallback: mine un-unified rather than stall.

        Called when the leader's packet has not arrived by the timeout.
        The node reverts to solo fee-greedy selection (and stops
        expecting a unified replay), so its shard keeps confirming.
        Returns True when the node actually fell back.
        """
        if self._selection_replay is not None:
            return False
        if not self._behavior_overridden:
            self.behavior = SoloFallbackBehavior()
        self.stats.leader_fallbacks += 1
        return True

    # ------------------------------------------------------------------
    # mining path
    # ------------------------------------------------------------------
    def forge_block(self, timestamp: float, capacity: int) -> Block:
        """Assemble this miner's next block on top of her current head.

        The transaction set comes from the miner's behavior (fee-greedy,
        game-assigned, or a cheating variant), filtered to the still
        sequentially-valid prefix.
        """
        # Ask the behavior for a candidate window wider than the block so
        # invalid or nonce-gapped picks can be replaced, then pack the
        # first `capacity` sequentially-valid transactions. The multi-pass
        # loop lets a deferred transaction (nonce ahead of its sender's
        # account) apply once its predecessor lands earlier in the block.
        window = max(capacity, min(len(self.mempool), capacity * 2 + 8))
        candidates = list(self.behavior.pick_transactions(self.mempool, window))
        # Adversarial fork point: a behavior may extend a non-head block
        # (e.g. the coalition-pure censorship fork). Honest behaviors
        # return None and keep the longest-chain head. The speculative
        # state below tracks the *canonical* chain, so forking behaviors
        # are expected to pack no transactions (the censorship attack
        # mines empty blocks by construction).
        parent_hash = self.ledger.head_hash
        height = self.ledger.height + 1
        fork_parent = self.behavior.choose_parent(self.ledger)
        if fork_parent is not None:
            parent_hash = fork_parent
            height = self.ledger.block(fork_parent).header.height + 1
        # Copy-on-write overlay: the speculation touches O(packed)
        # accounts, so deep-copying the whole world per forge is pure
        # waste — and at streaming scales it dominated the run.
        speculative = self.state.speculative_view()
        packable: list[Transaction] = []
        progress = True
        while progress and len(packable) < capacity and candidates:
            progress = False
            remaining: list[Transaction] = []
            for tx in candidates:
                if len(packable) < capacity and speculative.can_apply(tx):
                    speculative.apply_transaction(tx)
                    packable.append(tx)
                    progress = True
                else:
                    remaining.append(tx)
            candidates = remaining
        return Block.build(
            parent_hash=parent_hash,
            miner=self.identity.public,
            shard_id=self.behavior.claimed_shard(self.shard_id),
            height=height,
            timestamp=timestamp,
            transactions=packable,
        )

    def adopt_block(self, block: Block) -> None:
        """Record this miner's own freshly-mined block locally."""
        self._record_block(block)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def confirmed_tx_count(self) -> int:
        return len(self.ledger.confirmed_tx_ids())

    def canonical_tip_blocks(self, count: int) -> list[Block]:
        """The last ``count`` canonical blocks, genesis excluded.

        Exactly the slice the retransmission sweep re-gossips; empty
        when ``count`` is 0.
        """
        if count <= 0:
            return []
        tip = self.ledger.canonical_chain()[-count:]
        return [block for block in tip if block.header.height != 0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FullNode({self.identity.name}, shard={self.shard_id}, "
            f"pool={len(self.mempool)}, height={self.ledger.height})"
        )
