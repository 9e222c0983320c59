#!/usr/bin/env python3
"""Fault injection: breaking the network on purpose, and watching it heal.

The simulator's default network is too polite — every message arrives,
every node stays up, the unification leader never lies. This walkthrough
wires a seeded :class:`FaultPlan` into a full protocol run and shows the
degradation machinery working:

1. a clean baseline run;
2. 20% message loss plus a mid-run crash — retransmission sweeps and
   orphan buffering still drain every shard;
3. a withholding leader — the silence timeout degrades every miner to
   solo mining instead of stalling;
4. an equivocating leader — the tampered packet's digest fails the
   public commitment and every honest node rejects it.

Run:  python examples/fault_injection.py
"""

from repro import ProtocolConfig, ProtocolSimulation, uniform_contract_workload
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.faults import CrashEvent, FaultPlan, FaultyLeader, MessageFaults
from repro.net.network import LatencyModel

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s solo blocks
LOW_LATENCY = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)


def build(miners, txs, plan=None, unified=False, **overrides):
    config = ProtocolConfig(
        pow_params=FAST_POW,
        latency=LOW_LATENCY,
        max_duration=2_000.0,
        seed=7,
        fault_plan=plan,
        **overrides,
    )
    return ProtocolSimulation(miners, txs, config=config, unified=unified)


def banner(result, sim):
    drained = result.confirmed_tx_ids >= set(sim._tally.confirming)
    print(f"   drained: {drained}  (confirmed {len(result.confirmed_tx_ids)} "
          f"txs in {result.duration:.1f} s)")
    print(f"   drops: {result.drops}  retransmissions: {result.retransmissions}"
          f"  fallbacks: {result.fallbacks}"
          f"  equivocations detected: {result.equivocations_detected}")


def clean_baseline() -> None:
    print("1. Clean baseline (no fault plan)")
    miners = [MinerIdentity.create(f"base-{i}") for i in range(6)]
    txs = uniform_contract_workload(total_txs=30, contract_shards=2, seed=7)
    sim = build(miners, txs)
    banner(sim.run(), sim)


def chaos() -> None:
    print("\n2. 20% message loss + one node crashing at t=3 s")
    miners = [MinerIdentity.create(f"chaos-{i}") for i in range(6)]
    txs = uniform_contract_workload(total_txs=30, contract_shards=2, seed=7)
    plan = FaultPlan(
        default_message_faults=MessageFaults(drop_probability=0.2),
        crashes=(CrashEvent(miners[2].public, at=3.0, recover_at=12.0),),
    )
    sim = build(miners, txs, plan=plan, retransmit_interval=2.0)
    banner(sim.run(), sim)


def withholding_leader() -> None:
    print("\n3. Unified epoch, but the leader withholds the packet")
    miners = [MinerIdentity.create(f"silent-{i}") for i in range(8)]
    txs = uniform_contract_workload(total_txs=30, contract_shards=1, seed=9)
    plan = FaultPlan(leader=FaultyLeader("withhold"))
    sim = build(miners, txs, plan=plan, unified=True, leader_timeout=5.0)
    result = sim.run()
    print(f"   every miner fell back to solo mining at the {5.0:.0f} s "
          f"timeout: fallbacks = {result.fallbacks}/{len(miners)}")
    banner(result, sim)


def equivocating_leader() -> None:
    print("\n4. Unified epoch, but the leader equivocates")
    miners = [MinerIdentity.create(f"equiv-{i}") for i in range(8)]
    txs = uniform_contract_workload(total_txs=30, contract_shards=1, seed=9)
    plan = FaultPlan(leader=FaultyLeader("equivocate"))
    sim = build(miners, txs, plan=plan, unified=True, leader_timeout=5.0)
    result = sim.run()
    honest = len(miners) - 1
    print(f"   the tampered packet's digest failed the public commitment "
          f"on {result.equivocations_detected}/{honest} honest nodes")
    banner(result, sim)


if __name__ == "__main__":
    clean_baseline()
    chaos()
    withholding_leader()
    equivocating_leader()
    print("\nDone: loss, crashes and leader misbehavior all degrade "
          "gracefully instead of stalling the protocol.")
