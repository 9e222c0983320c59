"""Microbenchmarks of the hot kernels underlying every experiment.

Each pytest-benchmark case times one real kernel in absolute seconds.
"""

from __future__ import annotations

from repro.core.merging.algorithm import OneTimeMerge
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.crypto.merkle import MerkleTree
from repro.net.events import Scheduler
from repro.sim.config import SimulationConfig, TimingModel
from repro.sim.simulator import ShardGroupSpec, ShardedSimulation
from repro.workloads.distributions import random_small_shard_sizes, uniform_fees
from repro.workloads.generators import single_shard_workload


def test_kernel_best_reply_1000(benchmark):
    """Algorithm 2 at the Fig. 5(b) scale (1000 miners, 1000 txs)."""
    fees = uniform_fees(1_000, seed=1)

    def run():
        return BestReplyDynamics(SelectionGameConfig(capacity=1), seed=1).run(
            fees, miners=1_000
        )

    outcome = benchmark(run)
    assert outcome.converged


def test_kernel_one_time_merge_500(benchmark):
    """Algorithm 3 on 500 players (one Fig. 5(a) round)."""
    sizes = random_small_shard_sizes(500, seed=2)
    players = [ShardPlayer(i, s, 2.0) for i, s in enumerate(sizes, 1)]
    config = MergingGameConfig(
        shard_reward=10.0, lower_bound=75, subslots=16, max_slots=200
    )

    def run():
        return OneTimeMerge(config, seed=2).run(players)

    outcome = benchmark(run)
    assert outcome.merged_size >= 0


def test_kernel_merkle_tree_1024(benchmark):
    """Block commitment: build + fully verify a 1024-leaf tree."""
    items = [f"tx-{i}" for i in range(1_024)]

    def run():
        tree = MerkleTree(items)
        proof = tree.proof(513)
        assert proof.verify(tree.root)
        return tree.root

    benchmark(run)


def test_kernel_event_loop_100k(benchmark):
    """Raw DES throughput: 100k chained events."""

    def run():
        scheduler = Scheduler()
        remaining = [100_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                scheduler.schedule_in(0.001, tick)

        scheduler.schedule_in(0.001, tick)
        scheduler.run()
        return scheduler.events_fired

    fired = benchmark(run)
    assert fired == 100_000


def test_kernel_sharded_simulation(benchmark):
    """A full 9-shard throughput run (the Fig. 3a inner loop)."""
    timing = TimingModel.low_variance(interval=1.0, shape=48.0)
    specs = [
        ShardGroupSpec(
            shard_id=s,
            miners=(f"m{s}",),
            transactions=tuple(single_shard_workload(25, seed=s)),
        )
        for s in range(1, 10)
    ]

    def run():
        return ShardedSimulation(
            specs, SimulationConfig(timing=timing, seed=3)
        ).run()

    result = benchmark(run)
    assert result.all_confirmed
