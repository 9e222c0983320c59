"""Tests for repro.net.node — the Sec. III-C full-node workflow."""

import pytest

from repro.chain.callgraph import SenderClass
from repro.chain.state import WorldState
from repro.consensus.miner import MinerIdentity, ShardLiarBehavior
from repro.core.shard_formation import MAXSHARD_ID
from repro.net.messages import Message, MessageKind
from repro.net.node import MAX_IMAGES, FullNode, ImageTable
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from tests.conftest import (
    CONTRACT_A,
    CONTRACT_B,
    confirmed_ids_scan,
    make_call,
    make_transfer,
)


def make_node(shard=1, membership=None, behavior=None, balance=1_000,
              packet_commitment=None, name=None):
    identity = MinerIdentity.create(name or f"node-shard{shard}")
    state = WorldState()
    state.create_account("0xualice", balance=balance)
    from repro.chain.contract import SmartContract

    state.deploy_contract(SmartContract.unconditional(CONTRACT_A, "0xudest"))
    return FullNode(
        identity=identity,
        shard_id=shard,
        membership_verifier=membership or (lambda public, shard_id: True),
        behavior=behavior,
        state=state,
        packet_commitment=packet_commitment,
    )


class TestTransactionPath:
    def test_own_shard_tx_pooled(self):
        node = make_node(shard=1)
        assert node.on_transaction(make_call("0xualice", CONTRACT_A))
        assert len(node.mempool) == 1
        assert node.stats.txs_pooled == 1

    def test_maxshard_node_accepts_direct_transfers(self):
        node = make_node(shard=MAXSHARD_ID)
        assert node.on_transaction(make_transfer("0xualice", "0xubob"))

    def test_shared_callgraph_classifies_all_senders(self):
        # Nodes keep no call graph of their own: the simulation's one
        # shared graph has seen all traffic and classifies every sender.
        txs = [
            make_call("0xualice", CONTRACT_A),
            make_transfer("0xubob", "0xucarol"),
        ]
        miners = [MinerIdentity.create(f"shared-{i}") for i in range(3)]
        sim = ProtocolSimulation(miners, txs, config=ProtocolConfig(seed=1))
        graph = sim._callgraph
        assert graph.classify("0xualice") is SenderClass.SINGLE_CONTRACT
        assert graph.classify("0xubob") is SenderClass.DIRECT_SENDER
        assert not hasattr(sim.node(miners[0].public), "callgraph")

    def test_duplicate_tx_not_pooled_twice(self):
        node = make_node(shard=1)
        tx = make_call("0xualice", CONTRACT_A)
        node.on_transaction(tx)
        assert not node.on_transaction(tx)
        assert len(node.mempool) == 1

    def test_pool_skips_classification(self):
        # pool() trusts the caller's routing: a MaxShard transfer still
        # lands in a shard-1 pool when handed over directly.
        node = make_node(shard=1)
        assert node.pool([make_transfer("0xualice", "0xubob")])
        assert len(node.mempool) == 1

    def test_pool_refuses_duplicate(self):
        node = make_node(shard=1)
        tx = make_call("0xualice", CONTRACT_A)
        assert node.pool([tx]) == [tx]
        assert node.pool([tx]) == []
        assert not node.on_transaction(tx)
        assert len(node.mempool) == 1

    def test_pool_counts_and_hooks_once_per_accepted_tx(self):
        node = make_node(shard=1)
        seen = []
        node.on_pooled = lambda pooled_by, tx: seen.append((pooled_by, tx))
        first = make_call("0xualice", CONTRACT_A, nonce=0)
        second = make_call("0xualice", CONTRACT_A, nonce=1)
        assert node.pool([first, first]) == [first]
        node.on_transaction(second)
        node.on_transaction(second)
        assert node.stats.txs_pooled == 2
        # A batch hand-off leaves the hook to its caller, which reports
        # the admitted transactions in its own order.
        assert seen == [(node, second)]

    def test_receive_routes_tx_messages(self):
        node = make_node(shard=1)
        tx = make_call("0xualice", CONTRACT_A)
        node.receive(Message(MessageKind.TX, "peer", node.node_id, payload=tx))
        assert len(node.mempool) == 1


class TestMiningPath:
    def test_forge_packs_pending(self):
        node = make_node(shard=1)
        node.on_transaction(make_call("0xualice", CONTRACT_A, fee=5))
        block = node.forge_block(timestamp=1.0, capacity=10)
        assert len(block.transactions) == 1
        assert block.header.shard_id == 1
        assert block.header.miner == node.node_id

    def test_forge_respects_capacity(self):
        node = make_node(shard=1)
        for nonce in range(5):
            node.on_transaction(
                make_call("0xualice", CONTRACT_A, fee=nonce, nonce=nonce)
            )
        block = node.forge_block(timestamp=1.0, capacity=3)
        assert len(block.transactions) == 3

    def test_forge_skips_invalid_txs(self):
        node = make_node(shard=1, balance=3)
        node.on_transaction(make_call("0xualice", CONTRACT_A, amount=100, fee=5))
        block = node.forge_block(timestamp=1.0, capacity=10)
        assert block.is_empty

    def test_forge_orders_nonces_correctly(self):
        node = make_node(shard=1)
        # Insert out of nonce order; greedy-by-fee would pick nonce 1 first
        # and fail; the speculative filter keeps only the valid prefix.
        node.on_transaction(make_call("0xualice", CONTRACT_A, fee=9, nonce=1))
        node.on_transaction(make_call("0xualice", CONTRACT_A, fee=1, nonce=0))
        block = node.forge_block(timestamp=1.0, capacity=10)
        assert [tx.nonce for tx in block.transactions] == [0, 1]

    def test_adopt_block_updates_ledger_and_pool(self):
        node = make_node(shard=1)
        node.on_transaction(make_call("0xualice", CONTRACT_A))
        block = node.forge_block(timestamp=1.0, capacity=10)
        node.adopt_block(block)
        assert node.ledger.height == 1
        assert len(node.mempool) == 0
        assert len(node.ledger.confirmed_tx_ids()) == 1

    def test_canonical_tip_blocks_counts_from_the_tip(self):
        node = make_node(shard=1)
        for height in range(1, 4):
            node.adopt_block(node.forge_block(timestamp=float(height), capacity=10))
        heights = [b.header.height for b in node.canonical_tip_blocks(2)]
        assert heights == [2, 3]
        assert len(node.canonical_tip_blocks(10)) == 3  # genesis excluded
        assert node.canonical_tip_blocks(0) == []

    def test_liar_behavior_changes_header_claim(self):
        node = make_node(shard=1, behavior=ShardLiarBehavior(fake_shard=9))
        block = node.forge_block(timestamp=1.0, capacity=10)
        assert block.header.shard_id == 9


class TestBlockPath:
    def test_same_shard_block_recorded(self):
        packer = make_node(shard=1)
        receiver = make_node(shard=1)
        packer.on_transaction(make_call("0xualice", CONTRACT_A))
        block = packer.forge_block(timestamp=1.0, capacity=10)
        verdict = receiver.on_block(block)
        assert verdict.recorded
        assert receiver.ledger.height == 1
        assert receiver.stats.blocks_recorded == 1

    def test_foreign_block_not_recorded(self):
        packer = make_node(shard=1)
        receiver = make_node(shard=MAXSHARD_ID)
        block = packer.forge_block(timestamp=1.0, capacity=10)
        verdict = receiver.on_block(block)
        assert verdict.accepted and not verdict.recorded
        assert receiver.ledger.height == 0

    def test_shard_liar_block_rejected(self):
        """A miner claiming a shard she fails verification for."""
        membership = lambda public, shard: False
        liar = make_node(shard=1)
        receiver = make_node(shard=1, membership=membership)
        block = liar.forge_block(timestamp=1.0, capacity=10)
        verdict = receiver.on_block(block)
        assert not verdict.accepted
        assert receiver.stats.blocks_rejected == 1

    def test_recording_dedupes_mempool(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        tx = make_call("0xualice", CONTRACT_A)
        packer.on_transaction(tx)
        receiver.on_transaction(tx)
        block = packer.forge_block(timestamp=1.0, capacity=10)
        receiver.on_block(block)
        assert len(receiver.mempool) == 0

    def test_selection_deviation_rejected_with_replay(self):
        """Sec. IV-C at the node level: a block packing non-assigned
        transactions is rejected once a UnifiedReplay is installed."""
        from repro.core.selection.congestion_game import SelectionGameConfig
        from repro.core.unification import (
            ShardSelectionInput,
            UnificationPacket,
            UnifiedReplay,
        )

        packer = make_node(shard=1)
        txs = [
            make_call(f"0xusel{i}", CONTRACT_A, fee=i + 1, nonce=0)
            for i in range(4)
        ]
        packet = UnificationPacket(
            epoch_seed="node-epoch",
            leader_public="pk-leader",
            randomness="r" * 64,
            selection_inputs=(
                ShardSelectionInput(
                    shard_id=1,
                    tx_ids=tuple(t.tx_id for t in txs),
                    fees=tuple(float(t.fee) for t in txs),
                    miners=("pk-other", "pk-other2"),  # packer not assigned
                ),
            ),
            selection_config=SelectionGameConfig(capacity=2),
        )
        receiver = make_node(shard=1)
        receiver._selection_replay = UnifiedReplay(packet)
        packer.state.create_account("0xusel0", balance=100)
        packer.on_transaction(txs[0])
        block = packer.forge_block(timestamp=1.0, capacity=10)
        assert not block.is_empty
        verdict = receiver.on_block(block)
        assert not verdict.accepted
        assert "unified" in verdict.reason

    def test_empty_block_passes_selection_check(self):
        from repro.core.unification import UnificationPacket, UnifiedReplay

        packet = UnificationPacket(
            epoch_seed="e", leader_public="pk", randomness="r" * 64
        )
        packer = make_node(shard=1)
        receiver = make_node(shard=1)
        receiver._selection_replay = UnifiedReplay(packet)
        block = packer.forge_block(timestamp=1.0, capacity=10)
        assert receiver.on_block(block).recorded

    def test_duplicate_block_ignored_silently(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        block = packer.forge_block(timestamp=1.0, capacity=10)
        receiver.on_block(block)
        receiver.on_block(block)  # no raise; gossip duplicates are normal
        assert receiver.stats.blocks_recorded >= 1


class TestOrphanBuffering:
    """Out-of-order block arrivals heal instead of being dropped."""

    def _chain_of(self, packer, length):
        blocks = []
        for i in range(length):
            block = packer.forge_block(timestamp=float(i + 1), capacity=10)
            packer.adopt_block(block)
            blocks.append(block)
        return blocks

    def test_reordered_blocks_reconnect(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        first, second = self._chain_of(packer, 2)
        receiver.on_block(second)  # child before parent
        assert receiver.ledger.height == 0
        assert receiver.stats.orphans_buffered == 1
        receiver.on_block(first)
        assert receiver.ledger.height == 2
        assert receiver.stats.orphans_connected == 1
        assert receiver.stats.blocks_recorded == 2

    def test_deep_reorder_recovers_whole_chain(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        blocks = self._chain_of(packer, 4)
        for block in reversed(blocks):
            receiver.on_block(block)
        assert receiver.ledger.height == 4
        assert receiver.stats.orphans_buffered == 3
        assert receiver.stats.orphans_connected == 3

    def test_duplicate_orphan_buffered_once(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        first, second = self._chain_of(packer, 2)
        receiver.on_block(second)
        receiver.on_block(second)
        assert receiver.stats.orphans_buffered == 1
        receiver.on_block(first)
        assert receiver.ledger.height == 2

    def test_orphan_buffer_bounded(self):
        packer, receiver = make_node(shard=1), make_node(shard=1)
        blocks = self._chain_of(packer, FullNode.MAX_ORPHANS + 5)
        for block in blocks[1:]:
            receiver.on_block(block)
        assert receiver._orphan_count <= FullNode.MAX_ORPHANS


class TestUnificationPacketPath:
    """Leader-broadcast verification, installation and fallback."""

    def _packet_for(self, node, extra_miner="pk-mate"):
        from repro.core.selection.congestion_game import SelectionGameConfig
        from repro.core.unification import ShardSelectionInput, UnificationPacket

        txs = [
            make_call(f"0xupkt{i}", CONTRACT_A, fee=i + 1, nonce=0)
            for i in range(4)
        ]
        return UnificationPacket(
            epoch_seed="pkt-epoch",
            leader_public="pk-leader",
            randomness="r" * 64,
            selection_inputs=(
                ShardSelectionInput(
                    shard_id=node.shard_id,
                    tx_ids=tuple(t.tx_id for t in txs),
                    fees=tuple(float(t.fee) for t in txs),
                    miners=tuple(sorted((node.node_id, extra_miner))),
                ),
            ),
            selection_config=SelectionGameConfig(capacity=2),
        )

    def test_valid_packet_installs_replay_and_behavior(self):
        from repro.consensus.miner import AssignedSelectionBehavior

        node = make_node(shard=1, name="pkt-valid")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        assert node.on_unification_packet(packet)
        assert node.has_unified_replay
        assert node.stats.packets_accepted == 1
        assert isinstance(node.behavior, AssignedSelectionBehavior)

    def test_tampered_packet_rejected(self):
        import dataclasses

        node = make_node(shard=1, name="pkt-tamper")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        tampered = dataclasses.replace(packet, randomness="s" * 64)
        assert not node.on_unification_packet(tampered)
        assert not node.has_unified_replay
        assert node.stats.packets_rejected == 1
        assert node.stats.packets_accepted == 0

    def test_packet_delivered_via_message(self):
        node = make_node(shard=1, name="pkt-msg")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        node.receive(
            Message(MessageKind.LEADER_BROADCAST, "pk-leader", node.node_id,
                    payload=packet)
        )
        assert node.has_unified_replay

    def test_fallback_then_late_packet_recovers(self):
        from repro.consensus.miner import (
            AssignedSelectionBehavior,
            SoloFallbackBehavior,
        )

        node = make_node(shard=1, name="pkt-late")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        assert node.fallback_to_solo()
        assert isinstance(node.behavior, SoloFallbackBehavior)
        assert node.stats.leader_fallbacks == 1
        # The retransmitted packet still installs and upgrades the node.
        assert node.on_unification_packet(packet)
        assert isinstance(node.behavior, AssignedSelectionBehavior)

    def test_no_fallback_once_replay_installed(self):
        node = make_node(shard=1, name="pkt-nofall")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        node.on_unification_packet(packet)
        assert not node.fallback_to_solo()
        assert node.stats.leader_fallbacks == 0

    def test_overridden_behavior_kept_on_install(self):
        behavior = ShardLiarBehavior(fake_shard=9)
        node = make_node(shard=1, behavior=behavior, name="pkt-cheat")
        packet = self._packet_for(node)
        node._packet_commitment = packet.digest()
        node.on_unification_packet(packet)
        assert node.behavior is behavior  # cheater keeps cheating
        assert node.has_unified_replay  # but can still verify others


class TestTipDeltaReorg:
    """The journaled reorg path vs. the replay-from-genesis oracle."""

    def _forked_node(self):
        """A node driven through a multi-block reorg with value-moving
        bodies, so both branches actually mutate the world state."""
        from repro.chain.block import Block

        node = make_node(shard=1, name="reorg")
        # Fund bob in the live state AND the pre-genesis snapshot: the
        # replay oracle rebuilds from the pristine snapshot, so genesis
        # funding must exist in both views.
        node.state.create_account("0xubob", balance=1_000)
        node._pristine_state.create_account("0xubob", balance=1_000)
        genesis = node.ledger.head_hash
        tx_a = make_call("0xualice", fee=4)
        tx_b = make_transfer("0xubob", "0xucarol", amount=10, fee=2)
        tx_c = make_call("0xualice", fee=3, nonce=0)
        # Branch A: two blocks.
        a1 = Block.build(genesis, "pkA", 1, 1, 1.0, [tx_a])
        a2 = Block.build(a1.block_hash, "pkA", 1, 2, 2.0, [tx_b])
        # Branch B: three blocks from genesis — forces a reorg to depth 0.
        b1 = Block.build(genesis, "pkB", 1, 1, 1.1, [tx_c])
        b2 = Block.build(b1.block_hash, "pkB", 1, 2, 2.1, [tx_b])
        b3 = Block.build(b2.block_hash, "pkB", 1, 3, 3.1, [])
        for block in (a1, a2, b1, b2, b3):
            node._record_block(block)
        assert node.ledger.head_hash == b3.block_hash
        return node

    def test_reorg_state_matches_oracle(self):
        node = self._forked_node()
        assert node.state.fingerprint() == node.state_oracle_fingerprint()
        assert node.ledger.confirmed_tx_ids() == confirmed_ids_scan(node.ledger)

    def test_partial_depth_reorg(self):
        # Fork above genesis: the shared prefix must not be reverted.
        from repro.chain.block import Block

        node = make_node(shard=1, name="partial-reorg")
        node.state.create_account("0xubob", balance=1_000)
        node._pristine_state.create_account("0xubob", balance=1_000)
        genesis = node.ledger.head_hash
        tx_base = make_call("0xualice", fee=1)
        base = Block.build(genesis, "pkA", 1, 1, 1.0, [tx_base])
        tx_a = make_transfer("0xubob", "0xucarol", amount=5, fee=1)
        a2 = Block.build(base.block_hash, "pkA", 1, 2, 2.0, [tx_a])
        b2 = Block.build(base.block_hash, "pkB", 1, 2, 2.1, [])
        b3 = Block.build(b2.block_hash, "pkB", 1, 3, 3.1, [tx_a])
        for block in (base, a2, b2, b3):
            node._record_block(block)
        assert node.ledger.head_hash == b3.block_hash
        assert node.state.fingerprint() == node.state_oracle_fingerprint()
        # The shared-prefix tx stayed confirmed throughout.
        assert tx_base.tx_id in node.ledger.confirmed_tx_ids()


class TestExecuteOnce:
    """Replicas sharing an ImageTable: the forger records each block's
    image from the speculation that packed it, and every replica, the
    forger included, writes it once its state proves equal."""

    @staticmethod
    def _replicas(*balances, prefix="once"):
        nodes = [
            make_node(shard=1, balance=balance, name=f"{prefix}-{i}")
            for i, balance in enumerate(balances)
        ]
        table = ImageTable(len(nodes))
        for node in nodes:
            node.images = table
            node.provision([make_transfer("0xubob", "0xucarol")], 1_000)
        return nodes, table

    @staticmethod
    def _forge(node, body, timestamp=1.0):
        for tx in body:
            assert node.on_transaction(tx)
        block = node.forge_block(timestamp=timestamp, capacity=10)
        assert block.transactions == tuple(body)
        return block

    @staticmethod
    def _count_full_applies(monkeypatch):
        calls = []
        original = WorldState.apply_block_body

        def counting(state, *args, **kwargs):
            calls.append(state)
            return original(state, *args, **kwargs)

        monkeypatch.setattr(WorldState, "apply_block_body", counting)
        return calls

    def test_second_replica_writes_image_and_shares_undo(self, monkeypatch):
        (first, second), table = self._replicas(1_000, 1_000)
        applies = self._count_full_applies(monkeypatch)
        block = self._forge(
            first,
            [
                make_call("0xualice", fee=4),
                make_transfer("0xubob", "0xucarol", amount=10, fee=2),
            ],
        )
        assert len(table) == 1  # recorded by the forge
        first.adopt_block(block)
        assert len(table) == 1
        second._record_block(block)
        assert applies == []  # no replica runs the body, the forger included
        assert second._undos[block.block_hash] is first._undos[block.block_hash]
        assert len(table) == 0  # dropped at its last reuse
        for node in (first, second):
            assert node.state.fingerprint() == node.state_oracle_fingerprint()
        assert first.state.fingerprint() == second.state.fingerprint()

    def test_perturbed_read_falls_back_to_full_apply(self, monkeypatch):
        """Same parent hash, different pre-state: the replica must run
        the body itself. Writing the image here would leave alice's
        balance 1,000 short of the replica's own replay."""
        (first, richer), table = self._replicas(1_000, 2_000)
        applies = self._count_full_applies(monkeypatch)
        block = self._forge(first, [make_call("0xualice", fee=4)])
        first.adopt_block(block)
        richer._record_block(block)
        assert applies == [richer.state]
        assert richer.state.balance_of("0xualice") == 2_000 - 5
        assert richer.state.fingerprint() == richer.state_oracle_fingerprint()
        assert len(table) == 1  # a refused image is not a reuse

    def test_reorg_after_image_hit_matches_oracle(self):
        from repro.chain.block import Block

        (first, second, third), __ = self._replicas(1_000, 1_000, 1_000)
        genesis = first.ledger.head_hash
        a1 = self._forge(first, [make_call("0xualice", fee=4)])
        b1 = Block.build(
            genesis, "pkB", 1, 1, 1.1,
            [make_transfer("0xubob", "0xucarol", amount=7, fee=1)],
        )
        b2 = Block.build(
            b1.block_hash, "pkB", 1, 2, 2.1, [make_call("0xualice", fee=2)]
        )
        for node in (first, second, third):
            node._record_block(a1)
        # All three replicas hold the forge's undo for a1 ...
        shared = first._undos[a1.block_hash]
        assert second._undos[a1.block_hash] is shared
        assert third._undos[a1.block_hash] is shared
        # ... and unwind it in the reorg onto branch B.
        for node in (second, first, third):
            for block in (b1, b2):
                node._record_block(block)
            assert node.ledger.head_hash == b2.block_hash
            assert node.state.fingerprint() == node.state_oracle_fingerprint()
        assert first.state.fingerprint() == third.state.fingerprint()

    def test_table_is_bounded_fifo(self):
        from repro.chain.state import BlockImage, BlockUndo

        table = ImageTable(replicas=3)
        for i in range(MAX_IMAGES + 5):
            table.add(f"h{i}", BlockImage({}, (), {}, {}, {}, BlockUndo()))
        assert len(table) == MAX_IMAGES
        assert table.get("h0") is None
        assert table.get(f"h{MAX_IMAGES + 4}") is not None
        # Three replicas, the forger included: dropped at the third reuse.
        table.reused("h5")
        table.reused("h5")
        assert table.get("h5") is not None
        table.reused("h5")
        assert table.get("h5") is None

    def test_provision_feeds_the_oracle_only_when_it_takes_effect(self):
        from repro.chain.block import Block

        node = make_node(shard=1, name="provisioned")
        transfer = make_transfer("0xubob", "0xucarol", amount=10, fee=2)
        call_b = make_call("0xubob", CONTRACT_B, fee=3, nonce=1)
        node.provision([transfer], 1_000)
        node.provision([call_b], 1_000)  # bob exists: only CONTRACT_B is new
        node.provision([make_call("0xualice", CONTRACT_A)], 50)  # no-op
        assert node.state.balance_of("0xualice") == 1_000
        # The genesis contract is kept, not replaced by the testbed form.
        assert node.state.contract(CONTRACT_A).beneficiary == "0xudest"
        assert node.state.contract(CONTRACT_B).beneficiary.startswith("sink-")
        block = Block.build(
            node.ledger.head_hash, "pkA", 1, 1, 1.0, [transfer, call_b]
        )
        node._record_block(block)
        assert node.state.balance_of("0xubob") == 1_000 - 12 - 4
        assert node.state.contract(CONTRACT_B).invocation_count == 1
        # The oracle replays both the funded sender and the deployed
        # contract; replaying the no-op would swap CONTRACT_A's beneficiary.
        assert node.state.fingerprint() == node.state_oracle_fingerprint()
