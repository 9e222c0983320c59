"""Streaming-workload parity: generator injection vs. the list path.

The streaming layer's contract has three legs:

* an **unpaced** ``TxStream`` is materialized at construction, so
  generator-built workloads reproduce the recorded ``seed_digests.json``
  baselines bit-for-bit, exactly as list workloads do;
* **paced** injection (``inject_batch=``) is deterministic: reruns emit
  identical trace digests, confirm identical counts, and evict
  identically under a mempool bound (the recorded ``paced`` and
  ``paced-evict`` baselines pin both digests in
  ``test_engine_parity``);
* every unsupported combination is refused loudly at construction, not
  degraded silently at runtime.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.chain.block import Block
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.core.shard_formation import MAXSHARD_ID
from repro.errors import ConfigError, WorkloadError
from repro.faults.plan import FaultPlan
from repro.net.node import FullNode, ImageTable
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    MAX_MATERIALIZED_TXS,
    TxStream,
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)
from tests.conftest import CONTRACT_A, make_call, make_transfer
from tests.sim.test_engine_parity import (
    MINERS,
    PROFILES,
    SEED,
    TXS,
    _run_paced,
    _stream,
)

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)


def _simulate_stream(unified: bool = False, faulty: bool = False):
    """The exact `_simulate` setup of test_engine_parity, with the
    workload handed over as a TxStream instead of a list."""
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    plan = (
        FaultPlan.lossy(0.08, duplicate_probability=0.05) if faulty else None
    )
    config = ProtocolConfig(
        seed=SEED,
        trace=True,
        max_duration=5000.0,
        fault_plan=plan,
        retransmit_interval=60.0 if faulty else None,
    )
    sim = ProtocolSimulation(identities, _stream(), config=config, unified=unified)
    return sim.run()


class TestUnpacedStreamParity:
    """TxStream without pacing == materialized list."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_fast_engine_stream_matches_recorded_baseline(self, profile):
        result = _simulate_stream(**PROFILES[profile])
        assert result.trace.digest() == BASELINES[profile]


class TestPacedStreamingParity:
    """Paced injection, repeatably."""

    def test_fast_engine_paced_runs_are_deterministic(self):
        first, digest_a = _run_paced()
        second, digest_b = _run_paced()
        assert digest_a == digest_b
        assert first.confirmed_count() == second.confirmed_count()
        assert first.duration == second.duration
        assert first.evicted == second.evicted == 0

    def test_eviction_is_deterministic(self):
        """A tight mempool bound evicts the same transactions (counted
        per node) at the same instants on every rerun."""
        first, digest_a = _run_paced(limit=4, batch=8)
        again, digest_b = _run_paced(limit=4, batch=8)
        assert first.evicted > 0
        assert again.evicted == first.evicted
        assert digest_b == digest_a
        assert again.confirmed_count() == first.confirmed_count()
        assert again.duration == first.duration

    def test_defer_events_present_under_backpressure(self):
        result, __ = _run_paced(limit=4, batch=8)
        names = [record.name for record in result.trace.records]
        assert "inject.batch" in names
        assert "inject.done" in names

    def test_maxshard_contract_call_applies_and_the_stream_drains(self):
        """A direct sender who later calls a contract is a MaxShard
        sender, so the MaxShard replicas must hold that contract too.
        Deploying only each shard's own contracts left the call
        unappliable: 7/8 confirmed and the run hit its horizon."""

        def factory():
            yield make_transfer("0xumixed", "0xudst", nonce=0)
            yield make_call("0xumixed", CONTRACT_A, nonce=1)
            for i in range(6):
                yield make_call(f"0xusolo{i}", CONTRACT_A)

        stream = TxStream(
            total=8,
            contracts=(CONTRACT_A,),
            shard_counts={MAXSHARD_ID: 2, 1: 6},
            factory=factory,
            description="maxshard-contract-call",
        )
        config = ProtocolConfig(
            seed=SEED,
            max_duration=3000.0,
            pow_params=PoWParameters.fast_confirmation(5.0, block_capacity=10),
            inject_batch=4,
            inject_interval=1.0,
        )
        identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
        sim = ProtocolSimulation(identities, stream, config=config)
        assert MAXSHARD_ID in sim.assignment.shard_of.values()
        result = sim.run()
        assert result.confirmed_count() == 8
        assert result.duration < config.max_duration


class TestProvisioning:
    """A sender is granted its balance once, the first time a replica is
    provisioned with one of its transactions, even when value reached it
    earlier: then the grant is added to what it holds."""

    def test_sender_that_received_value_is_funded_and_the_stream_drains(self):
        """``0xub`` is paid by the first tx and sends the last; one tx per
        tick lets the payment confirm before ``0xub`` is provisioned.
        Funding only absent accounts left it holding the 1-unit payment:
        6/7 confirmed and the run hit its horizon."""

        def factory():
            yield make_transfer("0xua", "0xub")
            for i in range(5):
                yield make_transfer(f"0xufill{i}", "0xusink")
            yield make_transfer("0xub", "0xuc")

        stream = TxStream(
            total=7,
            contracts=(),
            shard_counts={MAXSHARD_ID: 7},
            factory=factory,
            description="credited-sender",
        )
        config = ProtocolConfig(
            seed=SEED,
            max_duration=3000.0,
            pow_params=PoWParameters.fast_confirmation(5.0, block_capacity=10),
            inject_batch=1,
            inject_interval=5.0,
        )
        identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
        sim = ProtocolSimulation(identities, stream, config=config)
        result = sim.run()
        assert result.confirmed_count() == 7
        assert result.duration < config.max_duration
        for public in sim.assignment.shard_of:
            node = sim.node(public)
            assert node.state.fingerprint() == node.state_oracle_fingerprint()

    def test_grant_to_a_credited_sender_survives_the_reorg_of_the_credit(self):
        """Two replicas share block images (and so the credit's undo,
        journaled by its forge). A reorg reverts the block that paid
        ``0xub`` after its grant; each replica must end where a
        pre-genesis grant would put it."""
        images = ImageTable(2)
        replicas = []
        for name in ("prov-a", "prov-b"):
            node = FullNode(
                identity=MinerIdentity.create(name),
                shard_id=MAXSHARD_ID,
                membership_verifier=lambda public, shard: True,
            )
            node.images = images
            replicas.append(node)
        genesis = replicas[0].ledger.head_hash
        pay = make_transfer("0xua", "0xub")
        spend = make_transfer("0xub", "0xuc")
        fork = Block.build(genesis, "pkB", MAXSHARD_ID, 1, 1.5, [])
        longer = Block.build(fork.block_hash, "pkB", MAXSHARD_ID, 2, 2.0, [spend])
        forger, other = replicas
        for node in replicas:
            node.provision([pay], 1_000)
        forger.on_transaction(pay)
        credit = forger.forge_block(timestamp=1.0, capacity=10)
        assert credit.transactions == (pay,)
        forger.adopt_block(credit)
        other.on_block(credit)
        assert replicas[0]._undos[credit.block_hash] is (
            replicas[1]._undos[credit.block_hash]
        )
        for node in replicas:
            node.provision([spend], 1_000)
            assert node.state.balance_of("0xub") == 1_000 + pay.amount
            node.on_block(fork)
            node.on_block(longer)
            assert node.ledger.head_hash == longer.block_hash
            assert node.state.balance_of("0xub") == 1_000 - spend.amount - spend.fee
            assert node.state.fingerprint() == node.state_oracle_fingerprint()


class TestStreamingRefusals:
    """Every unsupported combination fails loudly at construction."""

    def _identities(self):
        return [MinerIdentity.create(f"m{i}") for i in range(3)]

    def test_paced_active_fault_plan_refused(self):
        with pytest.raises(ConfigError, match="fault"):
            ProtocolConfig(
                inject_batch=10,
                fault_plan=FaultPlan.lossy(0.1),
                retransmit_interval=60.0,
            )

    def test_paced_list_workload_refused(self):
        config = ProtocolConfig(inject_batch=10)
        workload = uniform_contract_workload(
            total_txs=12, contract_shards=2, seed=1
        )
        with pytest.raises(ConfigError, match="TxStream"):
            ProtocolSimulation(self._identities(), workload, config=config)

    def test_lineage_with_stream_refused(self):
        config = ProtocolConfig(
            inject_batch=10, trace=Tracer(lineage=True)
        )
        with pytest.raises(ConfigError, match="lineage"):
            ProtocolSimulation(self._identities(), _stream(), config=config)

    def test_unified_with_stream_refused(self):
        config = ProtocolConfig(inject_batch=10)
        with pytest.raises(ConfigError, match="unification"):
            ProtocolSimulation(
                self._identities(), _stream(), config=config, unified=True
            )

    def test_bounded_pool_without_pacing_refused(self):
        """A list run stops once every transaction confirms; an evicted
        one never does, so the run would mine to the horizon."""
        identities = [MinerIdentity.create(f"m{i}") for i in range(6)]
        config = ProtocolConfig(
            pow_params=PoWParameters.fast_confirmation(),
            mempool_limit=5,
        )
        workload = uniform_contract_workload(
            total_txs=40, contract_shards=3, seed=7
        )
        with pytest.raises(ConfigError, match="mempool_limit"):
            ProtocolSimulation(identities, workload, config=config)
        unpaced = streaming_uniform_contract_workload(
            total_txs=40, contract_shards=3, seed=7
        )
        with pytest.raises(ConfigError, match="mempool_limit"):
            ProtocolSimulation(identities, unpaced, config=config)

    def test_oversized_stream_materialization_refused(self):
        big = streaming_uniform_contract_workload(
            total_txs=MAX_MATERIALIZED_TXS + 1, contract_shards=2, seed=1
        )
        with pytest.raises(WorkloadError, match="cap"):
            big.materialize()

    def test_oversized_stream_without_pacing_refused(self):
        big = streaming_uniform_contract_workload(
            total_txs=MAX_MATERIALIZED_TXS + 1, contract_shards=2, seed=1
        )
        with pytest.raises(WorkloadError, match="cap"):
            ProtocolSimulation(
                self._identities(), big, config=ProtocolConfig()
            )
