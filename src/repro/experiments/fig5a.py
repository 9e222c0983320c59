"""Fig. 5(a): large-scale merging simulation vs. the optimal shard count.

Random transaction counts in up to 1000 small shards; Algorithm 1 merges
them and the number of new shards is compared against the optimum
``#transactions / L``. The paper reports ~80% of optimal on average.
"""

from __future__ import annotations

from repro.baselines.optimal import optimal_new_shard_count
from repro.core.merging.algorithm import IterativeMerging
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.experiments.base import ExperimentResult
from repro.workloads.distributions import random_small_shard_sizes

#: The Fig. 5(a) regime: optimal new-shard counts top out around 60-70
#: with 1000 small shards of 1-9 transactions, which pins L near 75.
LARGE_SCALE_CONFIG = MergingGameConfig(
    shard_reward=10.0,
    lower_bound=75,
    step_size=0.1,
    subslots=16,
    max_slots=200,
)


def measure_point(small_shards: int, seed: int) -> tuple[int, int]:
    """(ours, optimal) new-shard counts for one population size."""
    sizes = random_small_shard_sizes(small_shards, seed=seed)
    players = [
        ShardPlayer(shard_id=i, size=size, cost=2.0)
        for i, size in enumerate(sizes, start=1)
    ]
    result = IterativeMerging(LARGE_SCALE_CONFIG, seed=seed).run(players)
    return result.new_shard_count, optimal_new_shard_count(
        sizes, LARGE_SCALE_CONFIG.lower_bound
    )


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    counts = [50, 100, 200] if quick else [100, 200, 400, 600, 800, 1000]
    rows = []
    ratios = []
    for count in counts:
        ours, optimal = measure_point(count, seed=seed + count)
        ratio = ours / optimal if optimal else 1.0
        ratios.append(ratio)
        rows.append(
            {
                "small_shards": count,
                "new_shards_ours": ours,
                "new_shards_optimal": optimal,
                "fraction_of_optimal": ratio,
            }
        )
    average = sum(ratios) / len(ratios)
    return ExperimentResult(
        experiment_id="fig5a",
        title="Large-scale merging vs. the optimal new-shard count",
        rows=rows,
        paper_claims={
            "fraction_of_optimal": "~80% on average (20% throughput loss)",
            "measured_average": f"{average:.1%}",
        },
    )
