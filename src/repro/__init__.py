"""repro — contract-centric blockchain sharding.

A complete, simulator-backed reproduction of
"On Sharding Open Blockchains with Smart Contracts"
(Tao, Li, Jiang, Ng, Wang, Li — ICDE 2020).

Quickstart::

    from repro import (
        uniform_contract_workload, partition_transactions,
        ShardGroupSpec, ShardedSimulation, run_ethereum,
        throughput_improvement,
    )

    txs = uniform_contract_workload(total_txs=200, contract_shards=8, seed=7)
    partition = partition_transactions(txs)
    specs = [
        ShardGroupSpec(shard_id=s, miners=(f"m{s}",), transactions=tuple(shard_txs))
        for s, shard_txs in partition.by_shard.items()
    ]
    sharded = ShardedSimulation(specs).run()
    ethereum = run_ethereum(txs, miner_count=9)
    print(throughput_improvement(ethereum.makespan, sharded.makespan))

See DESIGN.md for the full module map and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.chain import (
    Account,
    Block,
    CallGraph,
    Ledger,
    Mempool,
    SenderClass,
    SmartContract,
    Transaction,
    TransactionKind,
    WorldState,
)
from repro.core import (
    MAXSHARD_ID,
    BestReplyDynamics,
    EpochConfig,
    EpochManager,
    EpochPlan,
    IterativeMerging,
    MergingGameConfig,
    MinerAssignment,
    OneTimeMerge,
    SelectionGameConfig,
    ShardMap,
    UnificationPacket,
    UnifiedReplay,
    assign_miners,
    form_shards,
    partition_transactions,
    security,
    verify_membership,
)
from repro.core.merging import ShardPlayer
from repro.faults import (
    CrashEvent,
    FaultModel,
    FaultPlan,
    FaultStats,
    FaultyLeader,
    MessageFaults,
    Partition,
)
from repro.observe import (
    Tracer,
    use_tracer,
)
from repro.baselines import (
    ChainSpaceModel,
    RandomizedMerging,
    optimal_distinct_set_count,
    optimal_new_shard_count,
    run_ethereum,
)
from repro.sim import (
    Campaign,
    CampaignResult,
    ProtocolConfig,
    ProtocolSimulation,
    ShardGroupSpec,
    ShardedSimulation,
    SimulationConfig,
    SimulationResult,
    TimingModel,
    throughput_improvement,
)
from repro.workloads import (
    single_shard_workload,
    small_shard_workload,
    three_input_workload,
    uniform_contract_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # chain
    "Account",
    "Block",
    "CallGraph",
    "Ledger",
    "Mempool",
    "SenderClass",
    "SmartContract",
    "Transaction",
    "TransactionKind",
    "WorldState",
    # core
    "MAXSHARD_ID",
    "ShardMap",
    "form_shards",
    "partition_transactions",
    "MinerAssignment",
    "assign_miners",
    "verify_membership",
    "MergingGameConfig",
    "ShardPlayer",
    "OneTimeMerge",
    "IterativeMerging",
    "SelectionGameConfig",
    "BestReplyDynamics",
    "UnificationPacket",
    "UnifiedReplay",
    "EpochConfig",
    "EpochManager",
    "EpochPlan",
    "security",
    # faults
    "CrashEvent",
    "FaultModel",
    "FaultPlan",
    "FaultStats",
    "FaultyLeader",
    "MessageFaults",
    "Partition",
    # observe
    "Tracer",
    "use_tracer",
    # baselines
    "run_ethereum",
    "ChainSpaceModel",
    "RandomizedMerging",
    "optimal_new_shard_count",
    "optimal_distinct_set_count",
    # sim
    "TimingModel",
    "SimulationConfig",
    "ShardGroupSpec",
    "ShardedSimulation",
    "SimulationResult",
    "ProtocolSimulation",
    "ProtocolConfig",
    "Campaign",
    "CampaignResult",
    "throughput_improvement",
    # workloads
    "uniform_contract_workload",
    "small_shard_workload",
    "three_input_workload",
    "single_shard_workload",
]
