"""Property-based tests for the epoch orchestrator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.miner import MinerIdentity
from repro.core.epoch import EpochManager
from repro.workloads.generators import WorkloadBuilder

MINERS = [MinerIdentity.create(f"prop-epoch-{i}") for i in range(16)]


@st.composite
def epoch_workloads(draw):
    """Random mixes of shardable and MaxShard traffic."""
    builder = WorkloadBuilder()
    txs = []
    for i in range(draw(st.integers(min_value=3, max_value=30))):
        pattern = draw(st.integers(0, 2))
        contract = f"0xc{draw(st.integers(1, 4)):039d}"
        if pattern == 0:
            txs.append(builder.contract_call(f"0xus{i}", contract, fee=1 + i % 9))
        elif pattern == 1:
            sender = f"0xum{i}"
            txs.append(builder.contract_call(sender, f"0xc{1:039d}", fee=2))
            txs.append(builder.contract_call(sender, f"0xc{2:039d}", fee=2))
        else:
            txs.append(builder.direct_transfer(f"0xud{i}", f"0xur{i}", fee=3))
    return txs


class TestEpochProperties:
    @given(epoch_workloads(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_specs_conserve_workload_minus_deferrals(self, txs, epoch_index):
        plan = EpochManager(MINERS).run_epoch(epoch_index, txs)
        spec_txs = sum(len(s.transactions) for s in plan.to_specs())
        deferred = len(plan.deferred_transactions())
        assert spec_txs + deferred == len(txs)

    @given(epoch_workloads(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_no_transaction_duplicated_across_specs(self, txs, epoch_index):
        plan = EpochManager(MINERS).run_epoch(epoch_index, txs)
        ids = [
            tx.tx_id for spec in plan.to_specs() for tx in spec.transactions
        ]
        assert len(ids) == len(set(ids))

    @given(epoch_workloads(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_every_miner_verifies_in_her_effective_shard(self, txs, epoch_index):
        plan = EpochManager(MINERS).run_epoch(epoch_index, txs)
        for public in plan.assignment.shard_of:
            assert plan.verify_miner(public, plan.shard_of_miner(public))

    @given(epoch_workloads(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_merged_shards_have_pooled_miners(self, txs, epoch_index):
        plan = EpochManager(MINERS).run_epoch(epoch_index, txs)
        merged_map = plan.replay.merged_shard_map
        for old, new in merged_map.items():
            if old == new:
                continue
            old_members = set(plan.assignment.members_of(old))
            new_shard_members = set(plan.miners_of_shard(new))
            assert old_members <= new_shard_members
