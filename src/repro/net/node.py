"""Full nodes: the per-miner workflow of Sec. III-C.

A :class:`FullNode` owns the local ledger, world-state view and mempool
of one miner. It implements the receive-side protocol exactly as the
paper describes it:

* on a transaction — pool it; a batch already routed to this shard
  goes straight to :meth:`FullNode.pool`;
* on a block — run the two verifications (packer really in the claimed
  shard; claimed shard == own shard), then record, apply and de-pool.

Whether a gossiped payload is foreign is a pure function of public
data, so every receiver reaches the same verdict. The protocol
coordinator settles it once per wave: it gives a verified block or a
classified transaction a home shard, and the network never calls a node
of another shard with it (:attr:`Node.shard_id`). So what reaches
:meth:`FullNode.on_transaction` is in-shard, and what reaches
:meth:`FullNode.on_block` is in-shard gossip or a block with no
established home (a shard liar's), which takes both checks here.

The world-state bookkeeping is **tip-delta**: every applied canonical
block leaves a :class:`~repro.chain.state.BlockUndo` journal entry, and
each :class:`~repro.chain.ledger.HeadMove` the ledger returns is
reverted and executed as is — O(reorg depth) instead of a
replay-from-genesis O(chain) rebuild.
:meth:`FullNode.state_oracle_fingerprint` still replays from the
pre-genesis snapshot, so tests can check the journaled state against
it; the recorded digests in ``tests/sim/seed_digests.json`` pin the
runs themselves.
Execute once per shard: a block's forger records its
:class:`~repro.chain.state.BlockImage` from the speculation that packed
it, in the shard's :class:`ImageTable`, and a replica whose state holds
every value the image read, the forger included, writes it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

from repro.chain.block import Block
from repro.chain.contract import SmartContract
from repro.chain.ledger import HeadMove, Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import BlockImage, BlockUndo, WorldState
from repro.chain.transaction import Transaction
from repro.chain.validation import BlockValidator, BlockVerdict
from repro.consensus.miner import (
    AssignedSelectionBehavior,
    HonestBehavior,
    MinerBehavior,
    MinerIdentity,
    SoloFallbackBehavior,
)
from repro.errors import LedgerError, UnificationError
from repro.net.messages import Message, MessageKind

#: Cap on one shard's block images, oldest dropped first. It bounds stale
#: blocks' images (the rest go at their last reuse); a drop costs a full apply.
MAX_IMAGES = 64


class ImageTable:
    """The block images one shard's ``replicas`` share: each replica,
    the forger included, writes an image once."""

    __slots__ = ("_entries", "_reuses")

    def __init__(self, replicas: int) -> None:
        # block hash -> [image, reuses left before it is dropped]
        self._entries: dict[str, list] = {}
        self._reuses = replicas

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, block_hash: str) -> BlockImage | None:
        entry = self._entries.get(block_hash)
        return None if entry is None else entry[0]

    def add(self, block_hash: str, image: BlockImage) -> None:
        if len(self._entries) >= MAX_IMAGES:
            del self._entries[next(iter(self._entries))]
        self._entries[block_hash] = [image, self._reuses]

    def reused(self, block_hash: str) -> None:
        entry = self._entries[block_hash]
        entry[1] -= 1
        if not entry[1]:
            del self._entries[block_hash]


class Node(abc.ABC):
    """Anything addressable on the network."""

    __slots__ = ()

    #: The shard this node keeps. The network calls it only with
    #: messages whose home shard is this one or unset; ``None`` takes
    #: every message.
    shard_id: int | None = None

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
    blocks_recorded: int = 0
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
        "node_id",
        "shard_id",
        "behavior",
        "mempool",
        "ledger",
        "state",
        "stats",
        "_behavior_overridden",
        "_pristine_state",
        "_block_validator",
        "_selection_replay",
        "_packet_commitment",
        "_orphans",
        "_orphan_count",
        "_undos",
        "_funded",
        "images",
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
        behavior: MinerBehavior | None = None,
        state: WorldState | None = None,
        packet_commitment: str | None = None,
        mempool_limit: int | None = None,
    ) -> None:
        self.identity = identity
        self.node_id = identity.public
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
        self._block_validator = BlockValidator(
            own_shard=shard_id, membership_verifier=membership_verifier
        )
        # Sec. IV-C enforcement: once install_replay() runs, blocks that
        # deviate from the unified transaction selection are rejected
        # exactly like shard-membership liars.
        self._selection_replay = None
        # The publicly known digest of the canonical unification packet;
        # leader broadcasts whose digest mismatches it are rejected.
        self._packet_commitment = packet_commitment
        # Blocks whose parent has not arrived yet, keyed by parent hash.
        # Delay spikes and duplicate/drop races reorder gossip; buffering
        # lets the chain heal once the missing parent shows up.
        self._orphans: dict[str, list[Block]] = {}
        self._orphan_count = 0
        # Tip-delta state: the undo journal of every canonical block.
        self._undos: dict[str, BlockUndo] = {}
        # Sender -> the balance provisioning granted it, once per sender.
        self._funded: dict[str, int] = {}
        # The shard's shared block images, recorded by each block's
        # forger; None runs every body in full.
        self.images: ImageTable | None = None
        # Lineage hook: called as ``on_pooled(node, tx)`` whenever a
        # delivered transaction enters this node's mempool (a batch
        # hand-off through pool() leaves it to its caller). Installed by
        # the protocol simulation only when lineage tracing is on, so the
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
        """Pool a delivered transaction; False when the mempool refuses
        it (duplicate, or outbid when full). The network hands a node
        only transactions classified to its shard.
        """
        if not self.mempool.add(tx):
            return False
        self.stats.txs_pooled += 1
        if self.on_pooled is not None:
            self.on_pooled(self, tx)
        return True

    def pool(self, txs: list[Transaction]) -> list[Transaction]:
        """Pool a batch already routed to this shard, unclassified;
        returns the transactions the mempool admitted, in order. The
        caller reports them to ``on_pooled``."""
        admitted = self.mempool.admit(txs)
        self.stats.txs_pooled += len(admitted)
        return admitted

    def provision(self, txs: list[Transaction], balance: int) -> None:
        """Seed what ``txs`` need here, the only state seeding of a
        protocol run: grant each sender ``balance`` once, unless genesis
        holds it, and deploy each testbed contract (Sec. VI-A) called
        unless present. The oracle seeds both pre-genesis (no block can
        carry a transaction before its replicas are provisioned):
        contracts are few, so one is deployed into its base too; a grant
        is recorded by address. New senders land in one update; a sender
        already paid here is credited, and its journaled priors rebased,
        as a pre-genesis grant would."""
        state = self.state
        accounts, contracts = state.accounts, state.contracts
        funded, genesis = self._funded, self._pristine_state.accounts
        grants: dict[str, tuple[int, int]] = {}
        for tx in txs:
            sender = tx.sender
            if sender not in funded and sender not in genesis:
                funded[sender] = balance
                if sender in accounts:
                    state.credit(sender, balance)
                    self._rebase_undos(sender, balance)
                else:
                    grants[sender] = (balance, 0)
            contract = tx.contract
            if contract is not None and contract not in contracts:
                for seeded in (state, self._pristine_state):
                    seeded.deploy_contract(
                        SmartContract.unconditional(contract, f"sink-{contract[:8]}")
                    )
        accounts.update(grants)

    def _rebase_undos(self, address: str, grant: int) -> None:
        """Add ``grant`` to ``address``'s prior in every journal that
        holds one. Journals may be shared through block images, so a
        rebased one is a copy."""
        undos = self._undos
        for block_hash, undo in undos.items():
            if address in undo.accounts:
                prior = undo.accounts[address]
                rebased = BlockUndo()
                rebased.accounts = dict(undo.accounts)
                rebased.accounts[address] = (
                    (grant, 0) if prior is None else (prior[0] + grant, prior[1])
                )
                rebased.contracts = undo.contracts
                undos[block_hash] = rebased

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
        try:
            move = self.ledger.add_block(block)
        except LedgerError:
            return
        if move is not None:
            self._move_head(move)
        # A side-branch block leaves the state untouched: the flat state
        # tracks the canonical chain only, otherwise transactions confirmed
        # on a losing branch would poison sender nonces and never mine.
        self.stats.blocks_recorded += 1
        self._connect_orphans(block.block_hash)

    def _execute(self, block: Block) -> BlockUndo:
        """Apply one block body and return its (possibly shared) inverse:
        write the shard's image of it when this state holds its read
        set, else run the body."""
        images = self.images
        if images is not None:
            image = images.get(block.block_hash)
            if image is not None and self.state.write_image(image):
                images.reused(block.block_hash)
                return image.undo
        undo = BlockUndo()
        self.state.apply_block_body(
            block.transactions, miner=block.header.miner, journal=undo
        )
        return undo

    def _move_head(self, move: HeadMove) -> None:
        """Tip-delta head move: undo what left the chain, apply what joined.

        A plain tip extension is the depth-0 case: nothing to unwind,
        one block to apply, journaled so a later reorg can unwind it.

        Leaves the same state as a replay of the canonical chain from
        genesis (:meth:`state_oracle_fingerprint`) but touches only the
        branch delta. Newly canonical transactions are de-pooled;
        reverted ones are *not* re-pooled.
        """
        undos = self._undos
        for block in move.left:
            self.state.revert_block_body(undos.pop(block.block_hash))
        confirmed: set[str] = set()
        for block in move.joined:
            undos[block.block_hash] = self._execute(block)
            confirmed.update(tx.tx_id for tx in block.transactions)
        self.mempool.remove_confirmed(confirmed)

    def state_oracle_fingerprint(self) -> str:
        """Fingerprint of a from-scratch canonical replay (the oracle).

        Never touches the live state; differential tests compare this
        against ``self.state.fingerprint()`` after tip-delta runs.
        """
        state = self._pristine_state.snapshot()
        for address, balance in self._funded.items():
            state.create_account(address, balance=balance)
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
        counted. On acceptance the node builds the local replay and
        installs it (:meth:`install_replay`). The digest is memoized on
        the packet, so retransmitted copies of the same object cost a
        dict hit instead of a full recomputation.
        """
        from repro.core.unification import UnifiedReplay

        if (
            self._packet_commitment is not None
            and packet.digest() != self._packet_commitment
        ):
            self.stats.packets_rejected += 1
            return False
        self.stats.packets_accepted += 1
        if self._selection_replay is None:
            # Otherwise a retransmitted duplicate of an installed packet.
            self.install_replay(UnifiedReplay(packet))
        return True

    def install_replay(self, replay) -> None:
        """Enforce a verified unified selection (Sec. IV-C).

        From now on the node rejects blocks that deviate from
        ``replay``. Unless its behaviour was overridden it also packs
        its game-assigned set; in a solo or empty shard no game ran, and
        it keeps fee-greedy packing.
        """
        self._selection_replay = replay
        if self._behavior_overridden:
            return
        try:
            assigned = replay.assigned_tx_ids(self.shard_id, self.node_id)
        except UnificationError:
            return
        self.behavior = AssignedSelectionBehavior(list(assigned))

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
        sequentially-valid prefix. The speculation that packs it runs
        the body exactly as the block will, fees to this miner and
        journaled, so its image goes to the shard's table and no
        replica, this one included, executes the body again.
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
        # Overlay: the speculation touches O(packed) accounts, so
        # copying the whole world per forge is pure waste — and at
        # streaming scales it dominated the run.
        speculative = self.state.speculative_view()
        miner = self.identity.public
        undo = BlockUndo()
        packable: list[Transaction] = []
        progress = True
        while progress and len(packable) < capacity and candidates:
            progress = False
            remaining: list[Transaction] = []
            for tx in candidates:
                if len(packable) < capacity and speculative.can_apply(tx):
                    speculative.apply_transaction(tx, miner=miner, journal=undo)
                    packable.append(tx)
                    progress = True
                else:
                    remaining.append(tx)
            candidates = remaining
        block = Block.build(
            parent_hash=parent_hash,
            miner=miner,
            shard_id=self.behavior.claimed_shard(self.shard_id),
            height=height,
            timestamp=timestamp,
            transactions=packable,
        )
        if self.images is not None:
            image = speculative.record_image(block.transactions, undo)
            self.images.add(block.block_hash, image)
        return block

    def adopt_block(self, block: Block) -> None:
        """Record this miner's own freshly-mined block locally."""
        self._record_block(block)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
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
