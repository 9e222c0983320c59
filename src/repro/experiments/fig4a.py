"""Fig. 4(a): throughput improvement, our sharding vs. ChainSpace.

24000 transactions, 1-9 shards, confirmation speed unified at 76
transactions per second per miner in a non-sharding manner. Both schemes
parallelize effectively and scale near-linearly.
"""

from __future__ import annotations

import functools
import statistics

from repro.baselines.chainspace import ChainSpaceModel
from repro.baselines.ethereum import run_ethereum
from repro.experiments.base import ExperimentResult, repeated_sweep
from repro.experiments.common import run_sharded
from repro.sim.config import SimulationConfig, TimingModel
from repro.workloads.generators import uniform_contract_workload

#: 76 tx/s with 10-tx blocks = one block every 10/76 seconds.
TIMING = TimingModel.low_variance(interval=10.0 / 76.0, shape=48.0)


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    total_txs = 2_400 if quick else 24_000
    repetitions = 1 if quick else 3
    shard_counts = list(range(1, 10))

    def measure(run_seed: int, k: int) -> tuple[float, float]:
        """One cell: both schemes against one Ethereum baseline run."""
        txs = uniform_contract_workload(total_txs, k - 1, seed=run_seed)
        eth = run_ethereum(
            txs, miner_count=9, config=SimulationConfig(timing=TIMING, seed=run_seed)
        )
        ours = run_sharded(
            txs, config=SimulationConfig(timing=TIMING, seed=run_seed + 1)
        )
        cs = ChainSpaceModel(shard_count=k, seed=run_seed).run_throughput(
            txs, config=SimulationConfig(timing=TIMING, seed=run_seed + 2)
        )
        return eth.makespan / ours.makespan, eth.makespan / cs.makespan

    cells = repeated_sweep(
        [
            (functools.partial(measure, k=k), repetitions, seed + k)
            for k in shard_counts
        ]
    )
    rows = [
        {
            "shards": shard_count,
            "improvement_ours": statistics.mean(ours for ours, __ in ratios),
            "improvement_chainspace": statistics.mean(cs for __, cs in ratios),
        }
        for shard_count, ratios in zip(shard_counts, cells)
    ]
    return ExperimentResult(
        experiment_id="fig4a",
        title="Throughput improvement: our sharding vs. ChainSpace",
        rows=rows,
        paper_claims={
            "observation": "both schemes scale near-linearly; ours is not worse "
            "than ChainSpace"
        },
    )
