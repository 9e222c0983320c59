"""Tests for repro.core.shard_formation (Sec. III-A)."""

import pytest

from repro.core.shard_formation import (
    MAXSHARD_ID,
    form_shards,
    partition_transactions,
)
from repro.workloads.generators import (
    three_input_workload,
    uniform_contract_workload,
)
from tests.conftest import CONTRACT_A, CONTRACT_B, make_call, make_transfer


class TestFormShards:
    def test_single_contract_senders_create_shards(self):
        txs = [make_call("0xuA", CONTRACT_A), make_call("0xuB", CONTRACT_B)]
        shard_map, __ = form_shards(txs)
        assert shard_map.shard_count == 3  # 2 contracts + MaxShard
        assert set(shard_map.contract_to_shard.values()) == {1, 2}

    def test_multi_contract_sender_creates_no_shard(self):
        txs = [
            make_call("0xuC", CONTRACT_A),
            make_call("0xuC", CONTRACT_B, nonce=1),
        ]
        shard_map, __ = form_shards(txs)
        assert shard_map.shard_count == 1  # only the MaxShard

    def test_mixed_population(self):
        txs = [
            make_call("0xuA", CONTRACT_A),  # single-contract: shardable
            make_call("0xuC", CONTRACT_A),  # multi-contract: MaxShard
            make_call("0xuC", CONTRACT_B, nonce=1),
            make_transfer("0xuX", "0xuY"),  # direct: MaxShard
        ]
        shard_map, __ = form_shards(txs)
        assert CONTRACT_A in shard_map.contract_to_shard
        assert CONTRACT_B not in shard_map.contract_to_shard

    def test_shard_ids_deterministic(self):
        txs = [make_call("0xuA", CONTRACT_A), make_call("0xuB", CONTRACT_B)]
        first, __ = form_shards(txs)
        second, __ = form_shards(list(reversed(txs)))
        assert first.contract_to_shard == second.contract_to_shard


class TestRouting:
    def test_single_contract_tx_routes_to_contract_shard(self):
        txs = [make_call("0xuA", CONTRACT_A)]
        shard_map, graph = form_shards(txs)
        shard = shard_map.shard_of_transaction(txs[0], graph)
        assert shard == shard_map.contract_to_shard[CONTRACT_A]
        assert shard != MAXSHARD_ID

    def test_multi_contract_tx_routes_to_maxshard(self):
        txs = [
            make_call("0xuC", CONTRACT_A),
            make_call("0xuC", CONTRACT_B, nonce=1),
        ]
        shard_map, graph = form_shards(txs)
        assert shard_map.shard_of_transaction(txs[0], graph) == MAXSHARD_ID

    def test_direct_transfer_routes_to_maxshard(self):
        txs = [make_transfer("0xuX", "0xuY")]
        shard_map, graph = form_shards(txs)
        assert shard_map.shard_of_transaction(txs[0], graph) == MAXSHARD_ID

    def test_fig1c_mixed_sender_routes_to_maxshard(self):
        """User F: contract call AND direct transfer — both to MaxShard."""
        txs = [
            make_call("0xuF", CONTRACT_A),
            make_transfer("0xuF", "0xuH", nonce=1),
        ]
        shard_map, graph = form_shards(txs)
        assert shard_map.shard_of_transaction(txs[0], graph) == MAXSHARD_ID
        assert shard_map.shard_of_transaction(txs[1], graph) == MAXSHARD_ID


class TestPartition:
    def test_uniform_workload_partition(self):
        txs = uniform_contract_workload(total_txs=200, contract_shards=8, seed=1)
        partition = partition_transactions(txs)
        sizes = partition.shard_sizes
        assert len(sizes) == 9
        assert sum(sizes.values()) == 200
        assert all(size in (22, 23) for size in sizes.values())

    def test_fractions_sum_to_100(self):
        txs = uniform_contract_workload(total_txs=100, contract_shards=4, seed=2)
        partition = partition_transactions(txs)
        assert sum(partition.fractions().values()) == pytest.approx(100.0)

    def test_empty_workload_fractions(self):
        partition = partition_transactions([])
        assert partition.total_transactions == 0
        assert all(f == 0.0 for f in partition.fractions().values())

    def test_small_shards_detection(self):
        txs = [make_call("0xuA", CONTRACT_A)] + [
            make_call(f"0xuB{i}", CONTRACT_B) for i in range(30)
        ]
        partition = partition_transactions(txs)
        shard_map, __ = form_shards(txs)
        small = partition.small_shards(lower_bound=10)
        assert small == [shard_map.contract_to_shard[CONTRACT_A]]

    def test_maxshard_never_listed_small(self):
        txs = [make_transfer("0xuX", "0xuY")]
        partition = partition_transactions(txs)
        assert partition.small_shards(lower_bound=10) == []

    def test_three_input_txs_all_maxshard(self):
        """The Fig. 4(b) invariant: multi-input transactions never leave
        the MaxShard, so they need zero cross-shard communication."""
        txs = three_input_workload(100, seed=3)
        partition = partition_transactions(txs)
        assert len(partition.by_shard[MAXSHARD_ID]) == 100

    def test_every_tx_lands_in_exactly_one_shard(self):
        txs = uniform_contract_workload(total_txs=60, contract_shards=3, seed=4)
        partition = partition_transactions(txs)
        ids = [tx.tx_id for shard in partition.by_shard.values() for tx in shard]
        assert len(ids) == len(set(ids)) == 60
