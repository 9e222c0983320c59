"""Property-based tests on shard formation, assignment and unification."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.callgraph import SenderClass
from repro.consensus.miner import MinerIdentity
from repro.core.miner_assignment import assign_miners, draw_shard, verify_membership
from repro.core.shard_formation import MAXSHARD_ID, form_shards, partition_transactions
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.unification import UnificationPacket, UnifiedReplay
from repro.workloads.generators import WorkloadBuilder


@st.composite
def mixed_workloads(draw):
    """Random mixes of the three Fig. 1 sender patterns."""
    builder = WorkloadBuilder()
    contracts = [f"0xc{i:039d}" for i in range(1, 4)]
    txs = []
    pattern_choices = draw(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=25)
    )
    for i, pattern in enumerate(pattern_choices):
        if pattern == 0:  # single-contract sender
            txs.append(builder.contract_call(f"0xusc{i}", contracts[i % 3], fee=1))
        elif pattern == 1:  # multi-contract sender
            sender = f"0xumc{i}"
            txs.append(builder.contract_call(sender, contracts[0], fee=1))
            txs.append(builder.contract_call(sender, contracts[1], fee=1))
        else:  # direct sender
            txs.append(builder.direct_transfer(f"0xuds{i}", f"0xudst{i}", fee=1))
    return txs


class TestShardFormationProperties:
    @given(mixed_workloads())
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact(self, txs):
        partition = partition_transactions(txs)
        flattened = [tx.tx_id for shard in partition.by_shard.values() for tx in shard]
        assert sorted(flattened) == sorted(tx.tx_id for tx in txs)

    @given(mixed_workloads())
    @settings(max_examples=40, deadline=None)
    def test_non_maxshard_txs_are_single_contract(self, txs):
        shard_map, graph = form_shards(txs)
        partition = partition_transactions(txs, shard_map, graph)
        for shard, shard_txs in partition.by_shard.items():
            if shard == MAXSHARD_ID:
                continue
            for tx in shard_txs:
                assert graph.classify(tx.sender) is SenderClass.SINGLE_CONTRACT
                assert tx.is_contract_call

    @given(mixed_workloads())
    @settings(max_examples=40, deadline=None)
    def test_fractions_normalize(self, txs):
        partition = partition_transactions(txs)
        total = sum(partition.fractions().values())
        assert abs(total - 100.0) < 1e-6 or partition.total_transactions == 0


class TestAssignmentProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.dictionaries(
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        st.text(min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_verifiable_and_total(self, n_miners, fractions, epoch):
        miners = [MinerIdentity.create(f"prop-{epoch}-{i}") for i in range(n_miners)]
        assignment = assign_miners(miners, fractions, epoch_seed=epoch)
        for miner in miners:
            shard = assignment.shard_of[miner.public]
            assert shard in fractions
            assert verify_membership(
                miner.public, shard, assignment.randomness, fractions
            )

    @given(st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_draw_deterministic(self, public, randomness):
        fractions = {0: 50.0, 1: 50.0}
        assert draw_shard(public, randomness, fractions) == draw_shard(
            public, randomness, fractions
        )


class TestUnificationProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=10),
        st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_equality(self, sizes, nonce):
        players = tuple(
            ShardPlayer(i, s, 2.0) for i, s in enumerate(sizes, start=1)
        )
        packet = UnificationPacket(
            epoch_seed=f"epoch-{nonce}",
            leader_public="pk-leader",
            randomness=f"rand-{nonce}" + "0" * 50,
            merge_players=players,
            merge_config=MergingGameConfig(shard_reward=10.0, lower_bound=10, subslots=8),
        )
        maps = {UnifiedReplay(packet).merged_shard_map == UnifiedReplay(packet).merged_shard_map}
        assert maps == {True}
        replay = UnifiedReplay(packet)
        mapping = replay.merged_shard_map
        # The merged-shard map is idempotent: mapping a representative
        # returns itself.
        for target in set(mapping.values()):
            assert mapping[target] == target
