"""The coordinator hand-off classifies each transaction once per run.

The simulation keeps one call graph for the whole network. The
coordinator classifies a transaction once and hands it straight to its
shard's replicas, each replica's slice of a batch in one
:meth:`FullNode.pool` call; no replica observes or re-classifies it.
These tests count the call-graph work done during ``run()`` and check
that every pooled transaction landed in its shard.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chain.callgraph import CallGraph
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.net.node import FullNode
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)

MINERS = 9
TXS = 40


class _Counted:
    """Call counts of the call-graph methods and every pooled tx."""

    def __init__(self, monkeypatch) -> None:
        self.observes = 0
        self.classifies = 0
        self.pooled: list[tuple[FullNode, object]] = []
        observe, classify = CallGraph.observe, CallGraph.classify
        pool = FullNode.pool

        def counted_observe(graph, tx):
            self.observes += 1
            return observe(graph, tx)

        def counted_classify(graph, sender):
            self.classifies += 1
            return classify(graph, sender)

        def recorded_pool(node, txs):
            admitted = pool(node, txs)
            self.pooled.extend((node, tx) for tx in admitted)
            return admitted

        monkeypatch.setattr(CallGraph, "observe", counted_observe)
        monkeypatch.setattr(CallGraph, "classify", counted_classify)
        monkeypatch.setattr(FullNode, "pool", recorded_pool)

    def reset(self) -> None:
        self.observes = self.classifies = 0
        self.pooled.clear()


def _config(**overrides) -> ProtocolConfig:
    return ProtocolConfig(
        **{
            "seed": 11,
            "max_duration": 5000.0,
            "pow_params": PoWParameters.fast_confirmation(),
            **overrides,
        }
    )


def _miners() -> list[MinerIdentity]:
    return [MinerIdentity.create(f"handoff-{i}") for i in range(MINERS)]


def _assert_routed(sim: ProtocolSimulation, pooled) -> None:
    """Every pooled tx sits only with replicas of the shard it routes to."""
    route = sim._classify
    assert pooled
    for node, tx in pooled:
        assert route(tx) == node.shard_id
    for public in sim.assignment.shard_of:
        node = sim.node(public)
        for tx in node.mempool.pending():
            assert route(tx) == node.shard_id


@pytest.fixture
def counted(monkeypatch) -> _Counted:
    return _Counted(monkeypatch)


def test_stream_run_observes_and_classifies_each_tx_once(counted):
    stream = streaming_uniform_contract_workload(
        total_txs=TXS, contract_shards=3, seed=5
    )
    sim = ProtocolSimulation(
        _miners(), stream, config=_config(inject_batch=8, inject_interval=1.0)
    )
    counted.reset()
    result = sim.run()
    assert counted.observes == TXS
    assert counted.classifies == TXS
    assert result.confirmed_count() > 0
    _assert_routed(sim, counted.pooled)


def test_list_run_hands_off_without_observing(counted):
    txs = uniform_contract_workload(total_txs=TXS, contract_shards=3, seed=5)
    sim = ProtocolSimulation(_miners(), txs, config=_config())
    counted.reset()
    result = sim.run()
    # The graph saw the whole workload at construction. During the run
    # each tx is classified once, at hand-off; the same pass names the
    # transactions a populated shard can confirm.
    assert counted.observes == 0
    assert counted.classifies == TXS
    assert result.confirmed_count() > 0
    _assert_routed(sim, counted.pooled)
    # Each tx reaches every replica of its shard, and only those.
    replicas: dict[int, int] = {}
    for shard in sim.assignment.shard_of.values():
        replicas[shard] = replicas.get(shard, 0) + 1
    expected = sum(replicas.get(sim._classify(tx), 0) for tx in txs)
    assert len(counted.pooled) == expected


def test_lineage_sees_each_tx_in_hand_off_order():
    # Campaign shape: several contract shards, several replicas each,
    # and the stream's shards interleaved, so a shard-by-shard hand-off
    # would reorder the records. Lineage refuses a paced stream, so the
    # stream is materialized. tx.seen is the first pooling of a tx
    # anywhere: tx-major in workload order, at the first replica of its
    # shard in node order. The digest pins the records as the
    # per-transaction hand-off emitted them.
    txs = list(
        streaming_uniform_contract_workload(
            total_txs=600,
            contract_shards=5,
            seed=3,
            senders_per_shard=64,
            interleave_shards=True,
        )
    )
    miners = [MinerIdentity.create(f"seen-{i}") for i in range(24)]
    tracer = Tracer(lineage=True)
    sim = ProtocolSimulation(
        miners, txs, config=_config(seed=3, max_duration=5.0, trace=tracer)
    )
    sim.run()
    seen = [
        (r.attrs["tx"], r.actor, r.shard, r.seq)
        for r in tracer.records_named("tx.seen")
    ]
    expected = []
    for idx, tx in enumerate(txs):
        replicas = sim._shard_nodes.get(sim._classify(tx))
        if replicas:
            expected.append((idx, replicas[0].node_id, replicas[0].shard_id))
    assert [record[:3] for record in seen] == expected
    assert [record[3] for record in seen] == sorted(r[3] for r in seen)
    digest = hashlib.sha256(json.dumps(seen).encode()).hexdigest()[:16]
    assert digest == "a011d961b30e7445"
