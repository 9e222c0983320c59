"""Tests for repro.core.unification (Sec. IV-C)."""

import dataclasses

import pytest

from repro.chain.block import Block
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.core.unification import (
    ShardSelectionInput,
    UnificationPacket,
    UnifiedReplay,
    unification_message_count,
)
from repro.errors import UnificationError
from tests.conftest import make_call


MERGE_CONFIG = MergingGameConfig(shard_reward=10.0, lower_bound=10)


def make_packet(with_merge=True, with_selection=True, txs=None):
    txs = txs if txs is not None else [make_call(f"0xu{i}", fee=i + 1) for i in range(6)]
    selection_inputs = ()
    if with_selection:
        selection_inputs = (
            ShardSelectionInput(
                shard_id=1,
                tx_ids=tuple(tx.tx_id for tx in txs),
                fees=tuple(float(tx.fee) for tx in txs),
                miners=("pk-a", "pk-b", "pk-c"),
            ),
        )
    return (
        UnificationPacket(
            epoch_seed="epoch-1",
            leader_public="pk-leader",
            randomness="r" * 64,
            merge_players=(
                tuple(ShardPlayer(i, 5, 2.0) for i in range(1, 6))
                if with_merge
                else ()
            ),
            merge_config=MERGE_CONFIG if with_merge else None,
            selection_inputs=selection_inputs,
            selection_config=SelectionGameConfig(capacity=2),
        ),
        txs,
    )


class TestPacket:
    def test_digest_is_binding(self):
        a, __ = make_packet()
        b, __ = make_packet()
        # Same structure but fresh tx ids -> different digest.
        assert a.digest() != b.digest()

    def test_digest_is_stable(self):
        packet, __ = make_packet()
        assert packet.digest() == packet.digest()

    def test_derived_seeds_differ_by_purpose(self):
        packet, __ = make_packet()
        assert packet.derived_seed("merging") != packet.derived_seed("selection-1")

    def test_selection_input_validation(self):
        with pytest.raises(UnificationError):
            ShardSelectionInput(
                shard_id=1, tx_ids=("a",), fees=(1.0, 2.0), miners=("pk",)
            )


def _bump_fee(packet):
    shard_input = packet.selection_inputs[0]
    fees = (shard_input.fees[0] + 1.0,) + shard_input.fees[1:]
    return dataclasses.replace(
        packet,
        selection_inputs=(dataclasses.replace(shard_input, fees=fees),),
    )


def _swap_miner_order(packet):
    shard_input = packet.selection_inputs[0]
    miners = (shard_input.miners[1], shard_input.miners[0]) + shard_input.miners[2:]
    return dataclasses.replace(
        packet,
        selection_inputs=(dataclasses.replace(shard_input, miners=miners),),
    )


def _set_initial_profile(packet):
    shard_input = packet.selection_inputs[0]
    profile = tuple((i,) for i in range(len(shard_input.miners)))
    return dataclasses.replace(
        packet,
        selection_inputs=(
            dataclasses.replace(shard_input, initial_profile=profile),
        ),
    )


def _drop_tx(packet):
    shard_input = packet.selection_inputs[0]
    return dataclasses.replace(
        packet,
        selection_inputs=(
            dataclasses.replace(
                shard_input,
                tx_ids=shard_input.tx_ids[1:],
                fees=shard_input.fees[1:],
            ),
        ),
    )


TAMPERINGS = {
    "epoch_seed": lambda p: dataclasses.replace(p, epoch_seed="epoch-2"),
    "leader_public": lambda p: dataclasses.replace(p, leader_public="pk-usurper"),
    "randomness": lambda p: dataclasses.replace(p, randomness="s" * 64),
    "merge_players": lambda p: dataclasses.replace(
        p, merge_players=p.merge_players[:-1]
    ),
    "merge_config": lambda p: dataclasses.replace(
        p, merge_config=MergingGameConfig(shard_reward=99.0, lower_bound=10)
    ),
    "merge_initial": lambda p: dataclasses.replace(p, merge_initial=(0.5, 0.5)),
    "selection_fees": _bump_fee,
    "selection_miner_order": _swap_miner_order,
    "selection_initial_profile": _set_initial_profile,
    "selection_tx_ids": _drop_tx,
    "selection_config": lambda p: dataclasses.replace(
        p, selection_config=SelectionGameConfig(capacity=9)
    ),
}


class TestDigestTamperDetection:
    """Every field of the packet is bound by the digest commitment."""

    @pytest.mark.parametrize("field", sorted(TAMPERINGS))
    def test_mutation_changes_digest(self, field):
        packet, __ = make_packet()
        tampered = TAMPERINGS[field](packet)
        assert tampered != packet
        assert tampered.digest() != packet.digest()

    def test_tamperings_produce_pairwise_distinct_digests(self):
        packet, __ = make_packet()
        digests = {TAMPERINGS[field](packet).digest() for field in TAMPERINGS}
        assert len(digests) == len(TAMPERINGS)

    def test_initial_profile_coverage_checked(self):
        with pytest.raises(UnificationError):
            ShardSelectionInput(
                shard_id=1,
                tx_ids=("a",),
                fees=(1.0,),
                miners=("pk-a", "pk-b"),
                initial_profile=((0,),),
            )


class TestReplayDeterminism:
    def test_two_miners_replay_identically(self):
        """The core Sec. IV-C claim: identical inputs -> identical outputs,
        so honest miners verify behavior by local recomputation."""
        packet, __ = make_packet()
        replay_x = UnifiedReplay(packet)
        replay_y = UnifiedReplay(packet)
        assert replay_x.merged_shard_map == replay_y.merged_shard_map
        for miner in ("pk-a", "pk-b", "pk-c"):
            assert replay_x.assigned_tx_ids(1, miner) == replay_y.assigned_tx_ids(
                1, miner
            )

    def test_no_merge_scheduled(self):
        packet, __ = make_packet(with_merge=False)
        assert UnifiedReplay(packet).merging_result is None

    def test_merged_shard_map_canonical_representative(self):
        packet, __ = make_packet()
        replay = UnifiedReplay(packet)
        mapping = replay.merged_shard_map
        for outcome in replay.merging_result.new_shards:
            representative = min(outcome.merged_shards)
            for shard in outcome.merged_shards:
                assert mapping[shard] == representative

    def test_unknown_miner_rejected(self):
        packet, __ = make_packet()
        with pytest.raises(UnificationError):
            UnifiedReplay(packet).assigned_tx_ids(1, "pk-stranger")

    def test_unknown_shard_rejected(self):
        packet, __ = make_packet()
        with pytest.raises(UnificationError):
            UnifiedReplay(packet).assigned_tx_ids(99, "pk-a")


class TestBlockVerdicts:
    def block_of(self, miner, txs, shard=1):
        return Block.build(
            parent_hash=Block.genesis(shard).block_hash,
            miner=miner,
            shard_id=shard,
            height=1,
            timestamp=1.0,
            transactions=txs,
        )

    def test_conforming_block_passes(self):
        packet, txs = make_packet()
        replay = UnifiedReplay(packet)
        assigned_ids = set(replay.assigned_tx_ids(1, "pk-a"))
        assigned_txs = [tx for tx in txs if tx.tx_id in assigned_ids]
        block = self.block_of("pk-a", assigned_txs)
        assert replay.block_follows_selection(block)

    def test_selection_liar_detected(self):
        """A miner packing a transaction assigned to someone else."""
        packet, txs = make_packet()
        replay = UnifiedReplay(packet)
        assigned_a = set(replay.assigned_tx_ids(1, "pk-a"))
        stolen = [tx for tx in txs if tx.tx_id not in assigned_a]
        assert stolen, "test needs at least one non-assigned tx"
        block = self.block_of("pk-a", stolen[:1])
        assert not replay.block_follows_selection(block)

    def test_empty_block_conforms(self):
        packet, __ = make_packet()
        replay = UnifiedReplay(packet)
        assert replay.block_follows_selection(self.block_of("pk-a", []))

    def test_stranger_block_fails(self):
        packet, txs = make_packet()
        replay = UnifiedReplay(packet)
        block = self.block_of("pk-stranger", txs[:1])
        assert not replay.block_follows_selection(block)

    def test_merge_claim_consistency(self):
        packet, __ = make_packet()
        replay = UnifiedReplay(packet)
        mapping = replay.merged_shard_map
        shard, merged_into = next(iter(mapping.items()))
        assert replay.shard_claim_consistent_with_merge(shard, merged_into)
        assert not replay.shard_claim_consistent_with_merge(shard, merged_into + 99)


class TestMessageCount:
    def test_constant_two(self):
        """Fig. 4(c): two communications per shard, always."""
        for shards in range(1, 10):
            assert unification_message_count(shards) == 2

    def test_zero_shards(self):
        assert unification_message_count(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(UnificationError):
            unification_message_count(-1)
