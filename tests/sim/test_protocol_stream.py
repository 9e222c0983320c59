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

from repro.consensus.miner import MinerIdentity
from repro.errors import ConfigError, WorkloadError
from repro.faults.plan import FaultPlan
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    MAX_MATERIALIZED_TXS,
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)
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

    def test_stream_fields_match_list_generator(self):
        stream_txs = _stream().materialize()
        list_txs = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
        assert len(stream_txs) == len(list_txs)
        for a, b in zip(stream_txs, list_txs):
            assert (a.sender, a.recipient, a.amount, a.fee, a.kind,
                    a.contract, a.nonce) == (
                b.sender, b.recipient, b.amount, b.fee, b.kind,
                b.contract, b.nonce)


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
