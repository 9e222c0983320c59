#!/usr/bin/env python3
"""A token marketplace: skewed contract popularity and shard merging.

The scenario the paper's introduction motivates: a few hot token
contracts dominate traffic while a long tail of niche contracts sees a
trickle. Naive contract-centric sharding gives the tail tiny shards that
burn hash power on empty blocks; the inter-shard merging game (Sec. IV-A)
consolidates them — here, end to end, with the reward accounting that
makes merging individually rational.

Run:  python examples/token_marketplace.py
"""

from repro import (
    IterativeMerging,
    MergingGameConfig,
    ShardGroupSpec,
    ShardedSimulation,
    ShardPlayer,
    SimulationConfig,
    TimingModel,
    partition_transactions,
)
from repro.chain.fees import FeePolicy
from repro.workloads.generators import WorkloadBuilder

TIMING = TimingModel.low_variance(interval=1.0, shape=12.0)

# Contract popularity: two hot tokens, six niche ones.
MARKET = {
    "megacoin": 80,
    "stableswap": 64,
    "nft-drop": 9,
    "dao-votes": 7,
    "bridge": 6,
    "lottery": 4,
    "faucet": 3,
    "archive": 2,
}


def build_market_workload():
    builder = WorkloadBuilder()
    transactions = []
    for index, (name, volume) in enumerate(sorted(MARKET.items()), start=1):
        contract = f"0xc{index:039d}"
        for user in range(volume):
            transactions.append(
                builder.contract_call(
                    f"0xu-{name}-{user}", contract, fee=1 + (user * 13) % 20
                )
            )
    return transactions


def simulate(by_shard, merged_groups=(), label=""):
    merged_ids = {sid for group in merged_groups for sid in group}
    specs = []
    for group in merged_groups:
        txs, miners = [], []
        for sid in group:
            txs.extend(by_shard[sid])
            miners.append(f"m{sid}")
        specs.append(
            ShardGroupSpec(
                shard_id=min(group),
                miners=tuple(miners),
                transactions=tuple(txs),
                start_delay=3.0,
            )
        )
    for sid, txs in by_shard.items():
        if sid in merged_ids or not txs:
            continue
        specs.append(
            ShardGroupSpec(shard_id=sid, miners=(f"m{sid}",), transactions=tuple(txs))
        )
    result = ShardedSimulation(specs, SimulationConfig(timing=TIMING, seed=3)).run()
    print(
        f"  {label:<16} shards={len(specs):>2}  makespan={result.makespan:6.1f}s  "
        f"empty blocks={result.total_empty_blocks}"
    )
    return result


def main() -> None:
    transactions = build_market_workload()
    partition = partition_transactions(transactions)
    sizes = partition.shard_sizes

    print("Marketplace shard sizes:")
    for shard_id, size in sorted(sizes.items()):
        if size:
            print(f"  shard {shard_id}: {size} txs")

    config = MergingGameConfig(shard_reward=10.0, lower_bound=12, subslots=16)
    small_ids = partition.small_shards(lower_bound=config.lower_bound)
    print(f"\nSmall shards (below L={config.lower_bound}): {small_ids}")

    print("\nWithout merging:")
    before = simulate(partition.by_shard, label="unmerged")

    players = [ShardPlayer(sid, sizes[sid], cost=4.0) for sid in small_ids]
    merging = IterativeMerging(config, seed=11).run(players)
    groups = [o.merged_shards for o in merging.new_shards if o.satisfied]
    leftovers = [p.shard_id for p in merging.leftover_players]
    if groups and leftovers:
        groups[-1] = tuple(sorted(groups[-1] + tuple(leftovers)))
    print(
        f"\nMerging game outcome: {len(groups)} new shard(s): "
        + ", ".join(str(g) for g in groups)
    )

    print("\nWith merging:")
    after = simulate(partition.by_shard, merged_groups=groups, label="merged")

    reduction = 1.0 - after.total_empty_blocks / max(before.total_empty_blocks, 1)
    print(f"\nEmpty-block reduction: {reduction:.0%} (paper: ~90%)")

    # The incentive ledger: merging pays because of the shard reward G,
    # the merging game's own.
    policy = FeePolicy(block_reward=10)
    lone_income = policy.block_reward  # an empty block per slot
    merged_shard = groups[0] if groups else ()
    merged_txs = sum(sizes[sid] for sid in merged_shard)
    merged_income = config.shard_reward + policy.block_reward + merged_txs
    print(
        f"Per-miner economics: staying ~{lone_income} coins/slot (empty blocks) "
        f"vs merging ~{merged_income:g} coins (shard reward + fees)"
    )


if __name__ == "__main__":
    main()
