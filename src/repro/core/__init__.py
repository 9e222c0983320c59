"""The paper's primary contribution: contract-centric distributed sharding.

Subpackages and modules map one-to-one onto the paper's sections:

* :mod:`repro.core.shard_formation` — Sec. III-A transaction/state sharding
  (per-contract shards + MaxShard);
* :mod:`repro.core.miner_assignment` — Sec. III-B verifiable miner-to-shard
  assignment via VRF leader + RandHound draw, proportional to transaction
  fractions;
* :mod:`repro.core.merging` — Sec. IV-A / V inter-shard merging
  (evolutionary cooperative game, Algorithms 1 and 3);
* :mod:`repro.core.selection` — Sec. IV-B intra-shard transaction selection
  (congestion game, Algorithm 2);
* :mod:`repro.core.unification` — Sec. IV-C parameter unification
  (deterministic local replay + block verdicts);
* :mod:`repro.core.security` — Sec. III-B / IV-D security analysis
  (Fig. 1d curves, Eq. 3–6).
"""

from repro.core.shard_formation import (
    MAXSHARD_ID,
    ShardMap,
    TransactionPartition,
    form_shards,
    partition_transactions,
)
from repro.core.miner_assignment import (
    MinerAssignment,
    assign_miners,
    draw_shard,
    verify_membership,
)
from repro.core.merging import (
    IterativeMerging,
    MergeOutcome,
    MergingGameConfig,
    OneTimeMerge,
)
from repro.core.selection import (
    BestReplyDynamics,
    SelectionGameConfig,
    SelectionOutcome,
)
from repro.core.unification import UnificationPacket, UnifiedReplay
from repro.core.epoch import EpochConfig, EpochManager, EpochPlan
from repro.core import security, storage

__all__ = [
    "MAXSHARD_ID",
    "ShardMap",
    "TransactionPartition",
    "form_shards",
    "partition_transactions",
    "MinerAssignment",
    "assign_miners",
    "draw_shard",
    "verify_membership",
    "MergingGameConfig",
    "OneTimeMerge",
    "IterativeMerging",
    "MergeOutcome",
    "SelectionGameConfig",
    "BestReplyDynamics",
    "SelectionOutcome",
    "UnificationPacket",
    "UnifiedReplay",
    "EpochConfig",
    "EpochManager",
    "EpochPlan",
    "security",
    "storage",
]
