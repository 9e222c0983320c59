"""Tests for repro.workloads.generators."""

import pytest

from repro.chain.state import WorldState
from repro.chain.contract import SmartContract
from repro.core.shard_formation import MAXSHARD_ID, partition_transactions
from repro.errors import WorkloadError
from repro.workloads.generators import (
    WorkloadBuilder,
    single_shard_workload,
    small_shard_workload,
    streaming_uniform_contract_workload,
    three_input_workload,
    uniform_contract_workload,
)


def assert_workload_validates(txs):
    """Every generated workload must apply cleanly to a fresh state."""
    state = WorldState()
    contracts = {tx.contract for tx in txs if tx.contract}
    for contract in contracts:
        state.deploy_contract(SmartContract.unconditional(contract, "0xsink"))
    for sender in {tx.sender for tx in txs}:
        state.accounts[sender] = (max(state.balance_of(sender), 1_000_000), 0)
    by_sender: dict[str, list] = {}
    for tx in txs:
        by_sender.setdefault(tx.sender, []).append(tx)
    for sender_txs in by_sender.values():
        for tx in sorted(sender_txs, key=lambda t: t.nonce):
            state.apply_transaction(tx)


class TestWorkloadBuilder:
    def test_nonces_increment_per_sender(self):
        builder = WorkloadBuilder()
        a1 = builder.direct_transfer("0xua", "0xub", fee=1)
        a2 = builder.direct_transfer("0xua", "0xub", fee=1)
        b1 = builder.direct_transfer("0xub", "0xua", fee=1)
        assert (a1.nonce, a2.nonce, b1.nonce) == (0, 1, 0)


class TestUniformContractWorkload:
    def test_partition_matches_paper_formula(self):
        """200/(s+1) transactions per shard with s contracts."""
        txs = uniform_contract_workload(200, contract_shards=4, seed=3)
        partition = partition_transactions(txs)
        assert len(partition.by_shard) == 5
        assert all(size == 40 for size in partition.shard_sizes.values())

    def test_zero_contracts_all_maxshard(self):
        txs = uniform_contract_workload(50, contract_shards=0, seed=4)
        partition = partition_transactions(txs)
        assert partition.shard_sizes == {MAXSHARD_ID: 50}

    def test_validates_against_state(self):
        assert_workload_validates(uniform_contract_workload(60, 3, seed=5))

    def test_validation_errors(self):
        with pytest.raises(WorkloadError):
            uniform_contract_workload(-1, 1)
        with pytest.raises(WorkloadError):
            uniform_contract_workload(1, -1)


class TestSmallShardWorkload:
    def test_intended_sizes_realized(self):
        txs, sizes = small_shard_workload(
            200, shard_count=9, small_shard_sizes=[3, 5], seed=6
        )
        partition = partition_transactions(txs)
        for shard_index, size in sizes.items():
            assert partition.shard_sizes[shard_index] == size
        assert sum(sizes.values()) == 200

    def test_small_then_regular_ordering(self):
        __, sizes = small_shard_workload(200, 9, [1, 2, 3], seed=7)
        assert sizes[1] == 1 and sizes[2] == 2 and sizes[3] == 3
        assert all(sizes[i] > 20 for i in range(4, 10))

    def test_too_many_small_shards_rejected(self):
        with pytest.raises(WorkloadError):
            small_shard_workload(200, 2, [1, 2], seed=8)

    def test_oversized_small_shards_rejected(self):
        with pytest.raises(WorkloadError):
            small_shard_workload(10, 9, [9, 9], seed=9)

    @pytest.mark.parametrize(
        "total, sizes, argument",
        [
            # An empty small shard never forms and shifts every later id.
            (40, [0, 3], "small_shard_sizes"),
            (40, [3, -1], "small_shard_sizes"),
            # 8 regular shards cannot each get one of 3 leftover txs.
            (5, [1, 1], "total_txs"),
        ],
    )
    def test_sizes_that_break_intended_refused(self, total, sizes, argument):
        with pytest.raises(WorkloadError, match=argument):
            small_shard_workload(total, 10, sizes, seed=1)

    def test_smallest_total_forms_every_intended_shard(self):
        txs, sizes = small_shard_workload(10, 9, [1, 1], seed=1)
        partition = partition_transactions(txs)
        assert partition.shard_sizes == {MAXSHARD_ID: 0, **sizes}

    def test_validates_against_state(self):
        txs, __ = small_shard_workload(100, 9, [2, 4], seed=10)
        assert_workload_validates(txs)


class TestThreeInputWorkload:
    def test_input_count(self):
        txs = three_input_workload(20, inputs=3, seed=11)
        assert all(len(tx.input_accounts) == 3 for tx in txs)

    def test_all_maxshard(self):
        txs = three_input_workload(50, seed=12)
        partition = partition_transactions(txs)
        assert partition.shard_sizes == {MAXSHARD_ID: 50}

    def test_configurable_inputs(self):
        txs = three_input_workload(5, inputs=5, seed=13)
        assert all(len(tx.input_accounts) == 5 for tx in txs)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            three_input_workload(1, inputs=0)


class TestSingleShardWorkload:
    def test_single_contract(self):
        txs = single_shard_workload(30, seed=14)
        assert len({tx.contract for tx in txs}) == 1

    def test_explicit_fees(self):
        txs = single_shard_workload(3, fees=[7, 8, 9], seed=15)
        assert [tx.fee for tx in txs] == [7, 8, 9]

    def test_fee_length_checked(self):
        with pytest.raises(WorkloadError):
            single_shard_workload(3, fees=[1], seed=16)

    def test_lands_in_one_shard(self):
        txs = single_shard_workload(30, seed=17)
        partition = partition_transactions(txs)
        non_empty = [s for s, size in partition.shard_sizes.items() if size]
        assert len(non_empty) == 1


class TestStreamingPopulationAndInterleave:
    """Campaign-scale stream knobs: bounded senders + round-robin order."""

    def _stream(self, **kwargs):
        from repro.workloads.generators import (
            streaming_uniform_contract_workload,
        )

        return streaming_uniform_contract_workload(
            total_txs=120, contract_shards=3, seed=9, **kwargs
        )

    def test_population_bounds_sender_set_per_slice(self):
        txs = list(self._stream(senders_per_shard=5))
        by_slice: dict[str | None, set[str]] = {}
        for tx in txs:
            by_slice.setdefault(tx.contract, set()).add(tx.sender)
        assert len(by_slice) == 4  # MaxShard (None) + 3 contracts
        assert all(len(s) == 5 for s in by_slice.values())

    def test_population_fee_ladder_follows_nonce_order(self):
        txs = list(self._stream(senders_per_shard=5))
        by_sender: dict[str, list] = {}
        for tx in txs:
            by_sender.setdefault(tx.sender, []).append(tx)
        for chain in by_sender.values():
            assert [tx.nonce for tx in chain] == list(range(len(chain)))
            fees = [tx.fee for tx in chain]
            assert fees == sorted(fees, reverse=True)

    def test_population_too_small_for_fee_ladder_refused(self):
        from repro.workloads.generators import (
            streaming_uniform_contract_workload,
        )

        with pytest.raises(WorkloadError, match="fee ladder"):
            streaming_uniform_contract_workload(
                total_txs=1000, contract_shards=0, seed=9, senders_per_shard=2
            )

    def test_interleave_rotates_slices_round_robin(self):
        txs = list(self._stream(interleave_shards=True))
        slices = [tx.contract for tx in txs]
        # 4 slices, 120 txs: every window of 4 covers all slices once.
        for start in range(0, 120, 4):
            assert len(set(slices[start:start + 4])) == 4

    def test_interleave_preserves_transaction_multiset(self):
        def key(tx):
            return (tx.sender, tx.nonce, tx.fee, tx.contract, tx.recipient)

        plain = sorted(map(key, self._stream(senders_per_shard=5)))
        rotated = sorted(
            map(key, self._stream(senders_per_shard=5, interleave_shards=True))
        )
        assert plain == rotated

    def test_interleave_keeps_per_sender_nonces_in_yield_order(self):
        seen: dict[str, int] = {}
        for tx in self._stream(senders_per_shard=5, interleave_shards=True):
            assert tx.nonce == seen.get(tx.sender, 0)
            seen[tx.sender] = tx.nonce + 1


def _fields(tx):
    return (
        tx.sender,
        tx.recipient,
        tx.amount,
        tx.fee,
        tx.kind,
        tx.contract,
        tx.nonce,
        tx.extra_inputs,
    )


@pytest.mark.parametrize("seed", [7, 9])
@pytest.mark.parametrize(
    "listed, streamed",
    [
        (
            lambda seed: uniform_contract_workload(40, 3, seed=seed),
            lambda seed: streaming_uniform_contract_workload(40, 3, seed=seed),
        ),
        (
            lambda seed: uniform_contract_workload(121, 0, seed=seed),
            lambda seed: streaming_uniform_contract_workload(121, 0, seed=seed),
        ),
    ],
    ids=["uniform", "maxshard-only"],
)
def test_list_equals_materialized_stream(listed, streamed, seed):
    """A list generator's output is its streaming counterpart's, field
    for field and in order."""
    assert [_fields(tx) for tx in listed(seed)] == [
        _fields(tx) for tx in streamed(seed).materialize()
    ]
