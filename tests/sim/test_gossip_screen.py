"""The protocol's home-shard screen: the work it removes, and what it keeps.

The coordinator gives a gossiped transaction its classified shard and a
block its claimed shard once that claim verifies, so only in-shard
replicas are called with them. A block whose claim fails has no home and
still reaches, and is rejected by, every honest node.
"""

import collections

from repro.consensus.miner import MinerIdentity, ShardLiarBehavior
from repro.net.network import LatencyModel
from repro.net.node import FullNode
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload
from tests.sim.test_engine_parity import _simulate
from tests.sim.test_protocol import FAST_POW

#: ``(events_fired, pending, peak_pending)`` of the ``clean`` and
#: ``faulty`` profiles of ``seed_digests.json``, recorded before the
#: screen existed: it removes calls, never events.
SCHEDULER_WORK = {"clean": (37, 9, 5), "faulty": (359, 10, 45)}

#: In-shard deliveries of those runs, counted before the screen existed
#: as the ``on_block``/``on_transaction`` calls whose payload belonged
#: to the receiving node's shard (of 30/59 block and 0/292 tx calls).
IN_SHARD_CALLS = {
    "clean": {"block": 3, "tx": 0},
    "faulty": {"block": 7, "tx": 70},
}


def _counted_run(faulty):
    """One profile run with FullNode's two gossip handlers counted.

    A foreign transaction is judged after the run, with the run's own
    classifier: a list run's call graph saw the whole workload up front.
    """
    calls = collections.Counter()
    handed: list = []
    on_block, on_transaction = FullNode.on_block, FullNode.on_transaction

    def counted_block(node, block):
        calls["block"] += 1
        calls["foreign block"] += block.header.shard_id != node.shard_id
        return on_block(node, block)

    def counted_tx(node, tx):
        calls["tx"] += 1
        handed.append((node.shard_id, tx))
        return on_transaction(node, tx)

    FullNode.on_block, FullNode.on_transaction = counted_block, counted_tx
    try:
        sim, __ = _simulate(faulty=faulty)
    finally:
        FullNode.on_block, FullNode.on_transaction = on_block, on_transaction
    calls["foreign tx"] = sum(sim._classify(tx) != shard for shard, tx in handed)
    return sim, calls


class TestWorkPin:
    def _check(self, profile):
        sim, calls = _counted_run(faulty=profile == "faulty")
        scheduler = sim.scheduler
        assert (
            scheduler.events_fired, scheduler.pending, scheduler.peak_pending
        ) == SCHEDULER_WORK[profile]
        assert calls["block"] == IN_SHARD_CALLS[profile]["block"]
        assert calls["tx"] == IN_SHARD_CALLS[profile]["tx"]
        assert calls["foreign block"] == calls["foreign tx"] == 0

    def test_clean_profile(self):
        self._check("clean")

    def test_faulty_profile(self):
        self._check("faulty")


class TestUnverifiedClaims:
    def test_liar_claiming_a_real_shard_is_rejected_everywhere(self):
        # 8 miners over shards 1 (4 miners), 2 and 0 (2 each). The liar
        # sits in shard 1 and claims shard 2, a real shard it is not a
        # member of, so honest nodes in her own shard, in the claimed
        # shard and in the third shard must all reject every block.
        miners = [MinerIdentity.create(f"liar-{i}") for i in range(8)]
        txs = uniform_contract_workload(total_txs=30, contract_shards=3, seed=4)
        latency = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)
        horizon = 60.0

        def config():
            return ProtocolConfig(
                pow_params=FAST_POW,
                latency=latency,
                max_duration=horizon,
                seed=5,
                run_to_horizon=True,
            )

        shard_of = ProtocolSimulation(miners, txs, config=config()).assignment.shard_of
        liar = next(m for m in miners if shard_of[m.public] == 1)
        sim = ProtocolSimulation(
            miners,
            txs,
            config=config(),
            behaviors={liar.public: ShardLiarBehavior(fake_shard=2)},
        )
        honest = [sim.node(m.public) for m in miners if m is not liar]
        assert {node.shard_id for node in honest} == {0, 1, 2}
        rejected = collections.defaultdict(set)

        def note(node, block, reason):
            rejected[node.node_id].add(block.block_hash)

        for node in honest:
            node.on_rejected = note
        sim.run()
        # Every liar block forged a full latency before the horizon was
        # delivered everywhere before the run ended.
        last_send = horizon - latency.base_seconds - latency.jitter_seconds
        forged = {
            block.block_hash
            for block in sim.node(liar.public).ledger.all_blocks()
            if block.header.miner == liar.public and block.header.timestamp <= last_send
        }
        assert len(forged) > 5
        for node in honest:
            assert forged <= rejected[node.node_id], node.shard_id
