"""Shared experiment machinery.

Builds shard specs from partitions, runs the before/after/random merging
pipeline behind Fig. 3(c)-(g), and the epoch-based selection assignment
behind Fig. 3(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.baselines.ethereum import run_ethereum
from repro.baselines.random_merge import RandomizedMerging
from repro.chain.transaction import Transaction
from repro.core.merging.algorithm import IterativeMerging
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.core.shard_formation import partition_transactions
from repro.runtime import get_default_executor
from repro.sim.config import SimulationConfig, TimingModel
from repro.sim.simulator import ShardGroupSpec, ShardedSimulation, SimulationResult
from repro.workloads.distributions import random_small_shard_sizes
from repro.workloads.generators import small_shard_workload

#: One simulated second per block slot: empty-block counts and makespan
#: ratios are interval-free, so the fast setting only shortens wall time.
MERGE_TIMING = TimingModel.low_variance(interval=1.0, shape=12.0)

#: Default merging-game economics for the Fig. 3(c)-(g) pipeline: the
#: shard reward clearly dominates the merging cost, and the lower bound
#: is a little over one full block so merged shards stay busy.
MERGE_CONFIG = MergingGameConfig(
    shard_reward=10.0, lower_bound=10, step_size=0.1, subslots=16
)

#: Protocol latency a freshly merged shard pays before mining resumes
#: (the two unification round-trips plus local replay), in block slots.
MERGE_DELAY_SLOTS = 3.0


def specs_from_partition(
    by_shard: dict[int, list[Transaction]],
    miners_per_shard: int = 1,
    include_empty: bool = False,
) -> list[ShardGroupSpec]:
    """One greedy spec per shard, skipping empty shards by default."""
    specs = []
    for shard_id, txs in sorted(by_shard.items()):
        if not txs and not include_empty:
            continue
        specs.append(
            ShardGroupSpec(
                shard_id=shard_id,
                miners=tuple(f"s{shard_id}-m{i}" for i in range(miners_per_shard)),
                transactions=tuple(txs),
            )
        )
    return specs


def run_sharded(
    transactions: list[Transaction],
    config: SimulationConfig,
    miners_per_shard: int = 1,
) -> SimulationResult:
    """Partition a workload by the Sec. III-A rule and simulate it."""
    partition = partition_transactions(transactions)
    specs = specs_from_partition(partition.by_shard, miners_per_shard)
    return ShardedSimulation(specs, config=config).run()


# ----------------------------------------------------------------------
# the Fig. 3(c)-(g) merging pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergingPoint:
    """All metrics for one small-shard count ``x`` (averaged over seeds)."""

    small_shards: int
    improvement_before: float
    improvement_after: float
    improvement_random: float
    empty_before_per_shard: float
    empty_after_per_shard: float
    empty_random_per_shard: float
    new_shards_ours: float
    new_shards_random: float


def _merged_specs(
    by_shard: dict[int, list[Transaction]],
    groups: list[tuple[int, ...]],
    leftovers: list[int],
    sweep_leftovers: bool,
) -> list[ShardGroupSpec]:
    """Specs after merging: each group pools txs and miners of its shards.

    ``sweep_leftovers`` attaches small shards that could not form their
    own viable shard to the last merged group (the dynamic tail of
    Algorithm 1: a lone leftover keeps playing with whoever will have
    her); with no group at all the leftovers stay independent.
    """
    groups = [tuple(g) for g in groups]
    if sweep_leftovers and groups and leftovers:
        groups[-1] = tuple(sorted(groups[-1] + tuple(leftovers)))
        leftovers = []

    merged_ids = {sid for group in groups for sid in group}
    specs: list[ShardGroupSpec] = []
    for group in groups:
        representative = min(group)
        txs: list[Transaction] = []
        miners: list[str] = []
        for sid in group:
            txs.extend(by_shard.get(sid, []))
            miners.append(f"s{sid}-m0")
        specs.append(
            ShardGroupSpec(
                shard_id=representative,
                miners=tuple(miners),
                transactions=tuple(txs),
                start_delay=MERGE_DELAY_SLOTS * MERGE_TIMING.solo_interval,
            )
        )
    for shard_id, txs in sorted(by_shard.items()):
        if shard_id in merged_ids or not txs:
            continue
        specs.append(
            ShardGroupSpec(
                shard_id=shard_id,
                miners=(f"s{shard_id}-m0",),
                transactions=tuple(txs),
            )
        )
    return specs


def _small_shard_empty_mean(
    result: SimulationResult, small_ids: list[int], denominator: int
) -> float:
    """Empty blocks attributable to the small-shard population.

    Counts empties over the shards the small population became (the
    originals before merging; the merged groups after) and normalizes by
    the *original* small-shard count, so before/after ratios compare like
    with like.
    """
    total = sum(
        outcome.empty_blocks
        for sid, outcome in result.shards.items()
        if sid in small_ids
    )
    return total / max(denominator, 1)


def merging_pipeline_once(
    small_count: int, seed: int, sweep_leftovers: bool = True
) -> dict[str, float]:
    """One seeded run of the before/after/random merging comparison."""
    sizes = random_small_shard_sizes(small_count, seed=seed)
    txs, intended = small_shard_workload(
        total_txs=200, shard_count=9, small_shard_sizes=sizes, seed=seed
    )
    partition = partition_transactions(txs)
    by_shard = partition.by_shard
    small_ids = list(range(1, small_count + 1))

    config = SimulationConfig(timing=MERGE_TIMING, block_capacity=10, seed=seed)
    eth = run_ethereum(
        txs, miner_count=9, config=SimulationConfig(timing=MERGE_TIMING, seed=seed + 1)
    )

    before = ShardedSimulation(
        specs_from_partition(by_shard), config=config
    ).run()

    players = [
        ShardPlayer(shard_id=sid, size=intended[sid], cost=5.0) for sid in small_ids
    ]
    ours = IterativeMerging(MERGE_CONFIG, seed=seed).run(players)
    ours_groups = [
        outcome.merged_shards for outcome in ours.new_shards if outcome.satisfied
    ]
    ours_leftover = [p.shard_id for p in ours.leftover_players]
    after = ShardedSimulation(
        _merged_specs(by_shard, ours_groups, ours_leftover, sweep_leftovers),
        config=SimulationConfig(timing=MERGE_TIMING, block_capacity=10, seed=seed + 2),
    ).run()

    randomized = RandomizedMerging(MERGE_CONFIG, seed=seed).run(players)
    random_groups = [tuple(members) for members in randomized.new_shard_members]
    random_leftover = [p.shard_id for p in randomized.leftover_players]
    random_run = ShardedSimulation(
        _merged_specs(by_shard, random_groups, random_leftover, sweep_leftovers),
        config=SimulationConfig(timing=MERGE_TIMING, block_capacity=10, seed=seed + 3),
    ).run()

    after_small_ids = [min(g) for g in ours_groups] + (
        [] if sweep_leftovers and ours_groups else ours_leftover
    )
    random_small_ids = [min(g) for g in random_groups] + (
        [] if sweep_leftovers and random_groups else random_leftover
    )
    return {
        "improvement_before": eth.makespan / before.makespan,
        "improvement_after": eth.makespan / after.makespan,
        "improvement_random": eth.makespan / random_run.makespan,
        "empty_before": _small_shard_empty_mean(before, small_ids, small_count),
        "empty_after": _small_shard_empty_mean(after, after_small_ids, small_count),
        "empty_random": _small_shard_empty_mean(
            random_run, random_small_ids, small_count
        ),
        "new_shards_ours": float(ours.new_shard_count),
        "new_shards_random": float(randomized.new_shard_count),
    }


def _pipeline_task(task: tuple[int, int]) -> dict[str, float]:
    """Executor task: one seeded pipeline run (must be module-level so
    the sweep below can fan it out)."""
    small_count, run_seed = task
    return merging_pipeline_once(small_count, seed=run_seed)


@lru_cache(maxsize=8)
def merging_sweep(quick: bool, seed: int) -> tuple[MergingPoint, ...]:
    """The full x = 2..7 sweep, averaged over repetitions (cached).

    The whole (small-shard count x repetition) grid is one executor
    fan-out: every pipeline run is seeded independently, and each
    point's mean is taken over its repetitions in repetition order, so
    the result is bit-identical under any executor.
    """
    repetitions = 3 if quick else 10
    small_counts = list(range(2, 8))
    tasks = [
        (small_count, seed + 97 * rep + small_count)
        for small_count in small_counts
        for rep in range(repetitions)
    ]
    all_samples = get_default_executor().map(_pipeline_task, tasks)
    points = []
    for index, small_count in enumerate(small_counts):
        samples = all_samples[index * repetitions : (index + 1) * repetitions]

        def mean(key: str) -> float:
            return sum(s[key] for s in samples) / len(samples)

        points.append(
            MergingPoint(
                small_shards=small_count,
                improvement_before=mean("improvement_before"),
                improvement_after=mean("improvement_after"),
                improvement_random=mean("improvement_random"),
                empty_before_per_shard=mean("empty_before"),
                empty_after_per_shard=mean("empty_after"),
                empty_random_per_shard=mean("empty_random"),
                new_shards_ours=mean("new_shards_ours"),
                new_shards_random=mean("new_shards_random"),
            )
        )
    return tuple(points)


def clear_experiment_caches() -> None:
    """Drop memoized sweep results (benchmarks and parity tests call
    this so every timed/compared run actually recomputes)."""
    merging_sweep.cache_clear()


# ----------------------------------------------------------------------
# the Fig. 3(h) epoch-based selection assignment
# ----------------------------------------------------------------------
def epoch_selection_assignments(
    transactions: list[Transaction],
    miners: list[str],
    capacity: int,
    seed: int,
) -> dict[str, tuple[str, ...]]:
    """Assign the whole workload through repeated selection games.

    Each epoch runs Algorithm 2 on the remaining transactions; every
    selected transaction is owned by exactly one of its selectors (the
    unified tie-break: lowest miner index), mirroring that only one block
    can confirm it. Epochs repeat until the workload is fully assigned,
    building each miner's cumulative conflict-free lane.
    """
    remaining = list(transactions)
    assignment: dict[str, list[str]] = {miner: [] for miner in miners}
    epoch = 0
    config = SelectionGameConfig(capacity=capacity)
    while remaining:
        epoch += 1
        fees = [tx.fee for tx in remaining]
        dynamics = BestReplyDynamics(config, seed=seed * 1009 + epoch)
        outcome = dynamics.run(fees, miners=len(miners))
        owned: set[int] = set()
        for miner_index, miner in enumerate(miners):
            for j in outcome.profile[miner_index]:
                if j in owned:
                    continue
                owned.add(j)
                assignment[miner].append(remaining[j].tx_id)
        if not owned:  # degenerate: nobody selected anything
            fallback = remaining[: capacity or 1]
            assignment[miners[0]].extend(tx.tx_id for tx in fallback)
            owned = set(range(len(fallback)))
        remaining = [tx for j, tx in enumerate(remaining) if j not in owned]
    return {miner: tuple(tx_ids) for miner, tx_ids in assignment.items()}
