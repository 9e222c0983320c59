"""The benchmark's four workloads: seeded inputs and pinned configs.

Every input is made from the seed before any timer starts: miner
identities, the transaction list or stream, and (where a workload pins
one) the epoch assignment. The timed program only ever receives them.
Each workload runs the default ``fast`` engine through the public API,
with ``trace=False`` and ``telemetry=False`` passed explicitly, because
``trace=None`` would follow the ``REPRO_TRACE`` environment switch.

``unified=True`` (the Sec. IV-C leader packet) is deliberately left
out: with any active fault plan a unified run does not drain (at 24
miners it exhausted a 3M-event budget; with one crash only 100 of 200
txs had confirmed after 20,000 simulated seconds). That is a liveness
problem to fix, not a workload to time.

``toy=True`` shrinks every workload to a fraction of a second while
keeping its shape; the self-test uses it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters
from repro.core.miner_assignment import (
    GROUPS,
    MinerAssignment,
    _cumulative_intervals,
    assign_miners,
)
from repro.core.shard_formation import form_shards, partition_transactions
from repro.crypto.randhound import group_draw
from repro.faults.plan import CrashEvent, FaultPlan, MessageFaults
from repro.net.network import LatencyModel
from repro.sim.protocol import ProtocolConfig
from repro.workloads.generators import (
    TxStream,
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)

#: Candidate epoch randomness values tried before giving up on coverage.
EPOCH_TRIALS = 512


@dataclass
class Inputs:
    """Everything one sample hands the program, built before timing."""

    miners: list[MinerIdentity]
    transactions: list | TxStream
    config: ProtocolConfig
    assignment: MinerAssignment | None
    #: Transactions the workload offers (list length or stream total).
    injected: int
    #: Whether every offered transaction must end confirmed or evicted
    #: (False for run-to-horizon workloads).
    drains: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], Inputs]


def _identities(seed: int, count: int) -> list[MinerIdentity]:
    return [MinerIdentity.create(f"s{seed}-m{i}") for i in range(count)]


def _interval_params(expected_interval: float) -> PoWParameters:
    """PoW parameters giving one miner the requested expected interval."""
    return PoWParameters(
        difficulty=max(1, round(expected_interval * REFERENCE_HASHRATE))
    )


def _pinned(**options) -> ProtocolConfig:
    return ProtocolConfig(engine="fast", trace=False, telemetry=False, **options)


def _stream_fractions(stream: TxStream) -> dict[int, float]:
    """The load-proportional fractions the simulation derives itself."""
    total = max(1, stream.total)
    return {
        shard: max(100.0 * count / total, 0.01)
        for shard, count in sorted(stream.shard_counts.items())
    }


def _list_fractions(txs: list) -> dict[int, float]:
    shard_map, callgraph = form_shards(txs)
    fractions = partition_transactions(txs, shard_map, callgraph).fractions()
    return {shard: max(frac, 0.01) for shard, frac in fractions.items()}


def covered_assignment(
    miners: list[MinerIdentity],
    fractions: dict[int, float],
    seed: int,
    min_miners: int,
) -> MinerAssignment:
    """An honest epoch whose draw gives every shard ``min_miners`` miners.

    The epoch randomness is public input to the Sec. III-B draw, so
    deterministic candidates are walked until the smallest shard is
    large enough (the count mirrors ``draw_shard``: a miner's RandHound
    group lands in the first cumulative-fraction interval reaching it).
    Every block forged under the chosen epoch still passes the real
    membership verifier. An empty shard would strand its transactions,
    so a seed with no qualifying candidate is refused.
    """
    intervals = _cumulative_intervals(fractions)
    bounds = [high for __, __, high in intervals]
    for trial in range(EPOCH_TRIALS):
        randomness = f"perfbench-{seed}-r{trial}"
        sizes = [0] * len(intervals)
        for miner in miners:
            draw = group_draw(randomness, miner.public, groups=GROUPS)
            sizes[bisect.bisect_left(bounds, draw)] += 1
        if min(sizes) >= min_miners:
            return assign_miners(
                miners,
                fractions,
                epoch_seed=f"perfbench-{seed}",
                randomness=randomness,
            )
    raise RuntimeError(
        f"no epoch among {EPOCH_TRIALS} candidates gives every shard "
        f"{min_miners} miners (seed {seed})"
    )


def wan_fanout(seed: int, toy: bool = False) -> Inputs:
    miners = _identities(seed, 64 if toy else 320)
    txs = uniform_contract_workload(total_txs=50, contract_shards=3, seed=seed)
    config = _pinned(
        seed=seed,
        max_duration=90.0 if toy else 120.0,
        run_to_horizon=True,
        pow_params=_interval_params(40.0),
        latency=LatencyModel(base_seconds=60.0, jitter_seconds=90.0),
    )
    return Inputs(miners, txs, config, None, len(txs), drains=False)


def stream_evict(seed: int, toy: bool = False) -> Inputs:
    total = 2_500 if toy else 25_000
    stream = streaming_uniform_contract_workload(
        total_txs=total, contract_shards=3, seed=seed
    )
    miners = _identities(seed, 4)
    # One miner per shard: each shard's pool is one node's, so the
    # summed eviction count is exact per transaction.
    assignment = covered_assignment(
        miners, _stream_fractions(stream), seed, min_miners=1
    )
    config = _pinned(
        seed=seed,
        max_duration=5_000_000.0,
        pow_params=PoWParameters.fast_confirmation(76.0, block_capacity=100),
        block_capacity=100,
        inject_batch=50 if toy else 500,
        inject_interval=1.0,
        mempool_limit=200 if toy else 2_000,
    )
    return Inputs(miners, stream, config, assignment, total, drains=True)


def campaign(seed: int, toy: bool = False) -> Inputs:
    # With a fixed number of miners per shard, the replicated per-tx
    # work per block fanned out to every node grows as txs / shards**2:
    # 15 contract shards keep chain.state and chain.callgraph on top at
    # a size that fits many samples in a run.
    total = 1_500 if toy else 6_000
    miner_count = 48 if toy else 128
    capacity = 2_000
    stream = streaming_uniform_contract_workload(
        total_txs=total,
        contract_shards=5 if toy else 15,
        seed=seed,
        senders_per_shard=512,
        # Paced injection replays stream order; round-robin slices keep
        # each shard's offered load at its share.
        interleave_shards=True,
    )
    miners = _identities(seed, miner_count)
    assignment = covered_assignment(
        miners, _stream_fractions(stream), seed, min_miners=5
    )
    config = _pinned(
        seed=seed,
        # Run until every pool drains. The stream goes in over three
        # seconds; then the run waits for the last of the shards' next
        # blocks. A block every ~0.4 s per shard (8 miners a shard, one
        # block per miner every 3.2 s) keeps that tail short, so its
        # mostly empty blocks stay a small, steady part of the run.
        max_duration=100_000.0,
        pow_params=_interval_params(3.2),
        block_capacity=capacity,
        inject_batch=total // 4,
        inject_interval=1.0,
        mempool_limit=20_000,
    )
    return Inputs(miners, stream, config, assignment, total, drains=True)


def lossy_crash(seed: int, toy: bool = False) -> Inputs:
    miners = _identities(seed, 16 if toy else 32)
    txs = uniform_contract_workload(
        total_txs=120 if toy else 300, contract_shards=3, seed=seed
    )
    assignment = covered_assignment(
        miners, _list_fractions(txs), seed, min_miners=3
    )
    # Crash a member of the largest shard, so every shard keeps mining.
    largest = max(
        assignment.shard_sizes().items(), key=lambda item: (item[1], -item[0])
    )[0]
    plan = FaultPlan(
        default_message_faults=MessageFaults(
            drop_probability=0.15,
            duplicate_probability=0.05,
            delay_spike_probability=0.05,
            delay_spike_seconds=5.0,
        ),
        crashes=(
            CrashEvent(assignment.members_of(largest)[0], at=20.0, recover_at=80.0),
        ),
    )
    config = _pinned(
        seed=seed,
        max_duration=100_000.0,
        pow_params=_interval_params(8.0),
        latency=LatencyModel(base_seconds=0.5, jitter_seconds=0.5),
        fault_plan=plan,
        retransmit_interval=5.0,
    )
    return Inputs(miners, txs, config, assignment, len(txs), drains=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wan-fanout",
            "Scheduler, wave fan-out, on_block and block inspection do "
            "nearly all the work; the chain layers idle.",
            wan_fanout,
        ),
        Workload(
            "stream-evict",
            "Open-loop paced stream over a bounded pool: mempool "
            "insert/evict, call graph and stream generation dominate; "
            "the network is nearly idle.",
            stream_evict,
        ),
        Workload(
            "campaign",
            "Streamed 15-shard campaign run until it drains: per-node "
            "replicated state apply and call-graph work, and mempool "
            "select/remove.",
            campaign,
        ),
        Workload(
            "lossy-crash",
            "The only per-recipient delivery path: fault filter, "
            "retransmission, orphans and the per-event stop check.",
            lossy_crash,
        ),
    )
}
