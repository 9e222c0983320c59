#!/usr/bin/env python3
"""Dynamic epochs: the whole protocol cycling as traffic shifts.

Simulates three epochs of a blockchain whose contract popularity drifts:
a new hot contract emerges while yesterday's favourite fades into a small
shard. Each epoch, :class:`repro.EpochManager` runs the complete cycle —
beacon randomness, shard formation, proportional miner assignment,
inter-shard merging, intra-shard selection, parameter unification — and
the resulting plan is executed in the simulator.

Run:  python examples/dynamic_epochs.py
"""

from repro import EpochManager, ShardedSimulation, SimulationConfig, TimingModel
from repro.consensus.miner import MinerIdentity
from repro.workloads.generators import WorkloadBuilder

TIMING = TimingModel.low_variance(interval=1.0, shape=24.0)

# Contract volumes per epoch: "rising" takes over from "fading".
EPOCH_TRAFFIC = [
    {"fading": 60, "steady": 40, "rising": 6, "niche-a": 4, "niche-b": 5},
    {"fading": 25, "steady": 40, "rising": 35, "niche-a": 5, "niche-b": 4},
    {"fading": 6, "steady": 40, "rising": 62, "niche-a": 3, "niche-b": 4},
]


def build_epoch_workload(epoch_index: int) -> list:
    builder = WorkloadBuilder()
    transactions = []
    for name, volume in sorted(EPOCH_TRAFFIC[epoch_index].items()):
        contract = f"0xc{abs(hash(name)) % 10**36:039d}"
        for user in range(volume):
            sender = f"0xu-{name}-e{epoch_index}-{user}"
            transactions.append(
                builder.contract_call(sender, contract, fee=1 + user % 17)
            )
    return transactions


def main() -> None:
    miners = [MinerIdentity.create(f"dyn-{i}") for i in range(30)]
    manager = EpochManager(miners)

    for epoch_index in range(len(EPOCH_TRAFFIC)):
        transactions = build_epoch_workload(epoch_index)
        plan = manager.run_epoch(epoch_index, transactions)

        sizes = {
            shard: size
            for shard, size in sorted(plan.partition.shard_sizes.items())
            if size
        }
        merged = sorted(
            {
                (old, new)
                for old, new in plan.replay.merged_shard_map.items()
                if old != new
            }
        )
        miner_counts = plan.assignment.shard_sizes()

        print(f"=== epoch {epoch_index} "
              f"(randomness {plan.randomness[:12]}...) ===")
        print(f"  shard sizes: {sizes}")
        print(f"  miners per shard: "
              f"{ {s: c for s, c in sorted(miner_counts.items()) if c} }")
        if merged:
            print(f"  merges: {', '.join(f'{old}->{new}' for old, new in merged)}")
        else:
            print("  merges: none needed")

        result = ShardedSimulation(
            plan.to_specs(),
            SimulationConfig(timing=TIMING, seed=epoch_index),
        ).run()
        deferred = plan.deferred_transactions()
        print(f"  confirmed {result.confirmed_transactions}/"
              f"{result.total_transactions} txs in {result.makespan:.1f}s, "
              f"empty blocks: {result.total_empty_blocks}"
              + (f", deferred to next epoch: {len(deferred)}" if deferred else ""))
        print()


if __name__ == "__main__":
    main()
