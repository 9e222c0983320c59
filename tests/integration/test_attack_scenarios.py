"""Adversarial scenarios exercised end to end.

Each test stages one of the attacks the paper's design claims to resist
and checks the defense actually fires in our implementation.
"""

import pytest

from repro.chain.contract import SmartContract
from repro.chain.state import WorldState
from repro.consensus.miner import MinerIdentity
from repro.core.miner_assignment import assign_miners, draw_shard
from repro.core.shard_formation import MAXSHARD_ID, form_shards, partition_transactions
from repro.crypto.randhound import RandHoundBeacon
from repro.errors import BeaconError, ValidationError
from repro.workloads.generators import WorkloadBuilder
from tests.conftest import CONTRACT_A, CONTRACT_B


class TestCrossShardDoubleSpend:
    """The Sec. II-B motivating attack: A funds 10, pays 8 in one shard,
    then tries to pay 3 'in another shard'. Under contract-centric
    sharding both payments classify the sender as a direct/multi
    participant, land in the MaxShard, and serialize against one state —
    the double spend dies on the balance check."""

    def test_multi_contract_spender_is_serialized_in_maxshard(self):
        builder = WorkloadBuilder()
        tx1 = builder.contract_call("0xua", CONTRACT_A, fee=0, amount=8)
        tx2 = builder.contract_call("0xua", CONTRACT_B, fee=0, amount=3)
        shard_map, graph = form_shards([tx1, tx2])
        # Both route to the MaxShard: no pair of shards can validate them
        # against disjoint state copies.
        assert shard_map.shard_of_transaction(tx1, graph) == MAXSHARD_ID
        assert shard_map.shard_of_transaction(tx2, graph) == MAXSHARD_ID

    def test_double_spend_rejected_by_serial_state(self):
        builder = WorkloadBuilder()
        tx1 = builder.direct_transfer("0xua", "0xub", fee=0, amount=8)
        tx2 = builder.direct_transfer("0xua", "0xuc", fee=0, amount=3)
        state = WorldState()
        state.create_account("0xua", balance=10)
        state.create_account("0xub")
        state.create_account("0xuc")
        state.apply_transaction(tx1)
        with pytest.raises(ValidationError):
            state.apply_transaction(tx2)
        assert state.balance_of("0xua") == 2  # only the first spend landed

    def test_single_contract_senders_cannot_conflict_across_shards(self):
        """The inverse guarantee: transactions that *do* land in distinct
        contract shards come from disjoint sender sets, so no account's
        balance is touched from two shards."""
        builder = WorkloadBuilder()
        txs = [
            builder.contract_call(f"0xuA{i}", CONTRACT_A, fee=1) for i in range(5)
        ] + [
            builder.contract_call(f"0xuB{i}", CONTRACT_B, fee=1) for i in range(5)
        ]
        partition = partition_transactions(txs)
        senders_by_shard = {
            shard: {tx.sender for tx in shard_txs}
            for shard, shard_txs in partition.by_shard.items()
            if shard != MAXSHARD_ID and shard_txs
        }
        shards = list(senders_by_shard)
        assert len(shards) == 2
        assert not (senders_by_shard[shards[0]] & senders_by_shard[shards[1]])


class TestSybilAtAssignment:
    """Spawning identities does not let the adversary pick a shard: each
    new identity draws independently, so packing one shard requires
    winning independent draws — the Fig. 1(d) binomial regime."""

    def test_fresh_identities_draw_independently(self):
        fractions = {0: 34.0, 1: 33.0, 2: 33.0}
        randomness = "epoch-randomness"
        landed = [
            draw_shard(f"sybil-pk-{i}", randomness, fractions) for i in range(300)
        ]
        share = landed.count(0) / len(landed)
        # The adversary gets ~the fraction-proportional share, not a
        # chosen concentration.
        assert 0.25 < share < 0.45

    def test_grinding_requires_new_randomness(self):
        """With the epoch randomness fixed by the beacon, re-deriving the
        same identity never changes its shard."""
        fractions = {0: 50.0, 1: 50.0}
        first = draw_shard("grinder-pk", "fixed-randomness", fractions)
        for __ in range(10):
            assert draw_shard("grinder-pk", "fixed-randomness", fractions) == first


class TestLeaderEquivocation:
    """A malicious leader sending different packets to different miners
    is caught by comparing packet digests (Sec. IV-C's binding)."""

    def test_divergent_packets_have_divergent_digests(self):
        from dataclasses import replace

        from repro.core.merging.game import MergingGameConfig, ShardPlayer
        from repro.core.unification import UnificationPacket

        honest = UnificationPacket(
            epoch_seed="e",
            leader_public="pk-leader",
            randomness="r" * 64,
            merge_players=(ShardPlayer(1, 5, 2.0), ShardPlayer(2, 6, 2.0)),
            merge_config=MergingGameConfig(shard_reward=10.0, lower_bound=10),
        )
        # The leader tweaks one victim's view of the initial choices.
        forged = replace(honest, merge_initial=(0.9, 0.1))
        assert honest.digest() != forged.digest()

    def test_beacon_withholding_cannot_bias(self):
        """A participant who dislikes the upcoming randomness cannot
        silently drop out: withholding aborts the round loudly."""
        participants = [MinerIdentity.create(f"eq-{i}").keypair for i in range(4)]
        beacon = RandHoundBeacon(participants)
        with pytest.raises(BeaconError):
            beacon.run_round(withholders={participants[2].public})


class TestConditionalContractAbuse:
    """A contract condition cannot be bypassed by racing state: the
    condition is evaluated against the same serialized state that the
    transfer mutates."""

    def test_condition_window_closes_after_first_transfer(self):
        from repro.chain.contract import TransferCondition
        from repro.chain.transaction import Transaction, TransactionKind

        state = WorldState()
        state.create_account("0xualice", balance=100)
        state.create_account("0xubob", balance=0)
        contract = SmartContract(
            address=CONTRACT_A,
            beneficiary="0xubob",
            condition=TransferCondition(
                kind="balance_below", subject="0xubob", threshold=3
            ),
        )
        state.deploy_contract(contract)

        def call(nonce):
            return Transaction(
                sender="0xualice",
                recipient=CONTRACT_A,
                amount=5,
                fee=0,
                kind=TransactionKind.CONTRACT_CALL,
                contract=CONTRACT_A,
                nonce=nonce,
            )

        state.apply_transaction(call(0))  # bob: 0 -> 5, window closes
        with pytest.raises(ValidationError):
            state.apply_transaction(call(1))
        assert state.balance_of("0xubob") == 5
