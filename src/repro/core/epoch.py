"""Epoch orchestration: the full dynamic sharding cycle.

The paper's system is *dynamic*: each epoch the verifiable leader gathers
fresh statistics, the beacon produces new randomness, miners re-derive
their shards, small shards merge, and big shards replay the selection
game. :class:`EpochManager` packages that cycle behind one call:

1. run a RandHound beacon round over the miner population;
2. form shards from the epoch's observed transactions (Sec. III-A);
3. elect the VRF leader and assign miners proportionally to the
   per-shard transaction fractions (Sec. III-B);
4. build the unification packet: merging inputs for the small shards,
   selection inputs for every populated multi-miner shard (Sec. IV-C);
5. replay the games locally to obtain the merged topology and per-miner
   transaction assignments;
6. emit simulator-ready :class:`~repro.sim.simulator.ShardGroupSpec`s.

Every step is deterministic given (miner set, transactions, epoch
index), so any node — or any test — can recompute the plan and verify
everyone else's behavior against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.transaction import Transaction
from repro.consensus.miner import MinerIdentity
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.miner_assignment import MinerAssignment, assign_miners
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.core.shard_formation import (
    ShardMap,
    TransactionPartition,
    form_shards,
    partition_transactions,
)
from repro.core.unification import (
    ShardSelectionInput,
    UnificationPacket,
    UnifiedReplay,
)
from repro.crypto.randhound import RandHoundBeacon
from repro.errors import ShardingError

if False:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.simulator import ShardGroupSpec


@dataclass(frozen=True)
class EpochConfig:
    """Knobs of the per-epoch protocol."""

    merge_config: MergingGameConfig = field(
        default_factory=lambda: MergingGameConfig(
            shard_reward=10.0, lower_bound=10, subslots=16
        )
    )
    selection_config: SelectionGameConfig = field(
        default_factory=lambda: SelectionGameConfig(capacity=10)
    )
    merge_cost: float = 5.0
    #: Selection games only run in shards with at least this many miners
    #: (a lone miner has nobody to contend with).
    min_miners_for_selection: int = 2
    #: Seconds a merged shard spends on the merge protocol before mining.
    merge_delay_seconds: float = 3.0


@dataclass(frozen=True)
class EpochPlan:
    """Everything one epoch decided; the verifiable system state."""

    epoch_index: int
    randomness: str
    shard_map: ShardMap
    partition: TransactionPartition
    assignment: MinerAssignment
    packet: UnificationPacket
    replay: UnifiedReplay
    #: Seconds merged shards spend on the merging protocol before mining.
    merge_delay_seconds: float = 3.0

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def shard_of_miner(self, public: str) -> int:
        """A miner's *effective* shard after merging."""
        original = self.assignment.shard_of[public]
        return self.replay.merged_shard_map.get(original, original)

    def miners_of_shard(self, shard_id: int) -> list[str]:
        """Effective members of a (possibly merged) shard."""
        return sorted(
            public
            for public in self.assignment.shard_of
            if self.shard_of_miner(public) == shard_id
        )

    def assigned_tx_ids(self, public: str) -> tuple[str, ...]:
        """The selection game's assignment for one miner, if any."""
        from repro.errors import UnificationError

        original = self.assignment.shard_of[public]
        try:
            return self.replay.assigned_tx_ids(original, public)
        except UnificationError:
            return ()

    def verify_miner(self, public: str, claimed_shard: int) -> bool:
        """The public membership check, merge-aware.

        Accepts the miner's original assigned shard *or* the canonical id
        of the merged shard it collapsed into.
        """
        if public not in self.assignment.shard_of:
            return False
        original = self.assignment.shard_of[public]
        return claimed_shard in (original, self.shard_of_miner(public))

    def deferred_transactions(self) -> list[Transaction]:
        """Transactions whose shard drew no miners this epoch.

        The proportional draw gives every shard a positive miner share in
        expectation, but a small population can leave a shard empty; its
        transactions wait for the next epoch's re-draw (they appear in no
        spec from :meth:`to_specs`).
        """
        deferred: list[Transaction] = []
        merged_map = self.replay.merged_shard_map
        for shard, txs in self.partition.by_shard.items():
            target = merged_map.get(shard, shard)
            if txs and not self.miners_of_shard(target):
                deferred.extend(txs)
        return deferred

    def to_specs(self) -> list["ShardGroupSpec"]:
        """Simulator-ready shard groups implementing this plan.

        Shards that drew no miners are omitted; see
        :meth:`deferred_transactions` for the workload they defer.
        """
        from repro.sim.simulator import ShardGroupSpec

        by_shard = self.partition.by_shard
        merged_map = self.replay.merged_shard_map

        # Group original shards by their effective (merged) shard.
        effective: dict[int, list[int]] = {}
        for shard in by_shard:
            target = merged_map.get(shard, shard)
            effective.setdefault(target, []).append(shard)

        specs: list[ShardGroupSpec] = []
        for target, originals in sorted(effective.items()):
            txs: list[Transaction] = []
            for original in originals:
                txs.extend(by_shard.get(original, []))
            miners = tuple(self.miners_of_shard(target))
            if not miners or not txs:
                continue
            assignments = {
                public: self.assigned_tx_ids(public) for public in miners
            }
            has_assignments = any(assignments.values())
            merged = len(originals) > 1
            specs.append(
                ShardGroupSpec(
                    shard_id=target,
                    miners=miners,
                    transactions=tuple(txs),
                    mode="assigned" if has_assignments else "greedy",
                    assignments=assignments if has_assignments else None,
                    start_delay=self.merge_delay_seconds if merged else 0.0,
                )
            )
        return specs


class EpochManager:
    """Runs the per-epoch protocol for a fixed miner population."""

    def __init__(
        self, miners: list[MinerIdentity], config: EpochConfig | None = None
    ) -> None:
        if not miners:
            raise ShardingError("an epoch needs miners")
        self._miners = list(miners)
        self._config = config or EpochConfig()
        self._beacon = RandHoundBeacon([m.keypair for m in miners])

    @property
    def config(self) -> EpochConfig:
        return self._config

    def run_epoch(
        self, epoch_index: int, transactions: list[Transaction]
    ) -> EpochPlan:
        """Execute one full epoch over the observed transactions."""
        if not transactions:
            raise ShardingError("an epoch needs transactions to shard")
        config = self._config

        # 1. fresh verifiable randomness.
        randomness = self._beacon.run_round().randomness

        # 2. shard formation + statistics.
        shard_map, callgraph = form_shards(transactions)
        partition = partition_transactions(transactions, shard_map, callgraph)
        fractions = {
            shard: max(fraction, 0.5)
            for shard, fraction in partition.fractions().items()
        }

        # 3. proportional, verifiable miner assignment.
        assignment = assign_miners(
            self._miners,
            fractions,
            epoch_seed=f"epoch-{epoch_index}",
            randomness=randomness,
        )

        # 4. the unification packet.
        packet = self._build_packet(
            epoch_index, randomness, assignment, partition
        )

        # 5. the local replay every miner performs.
        replay = UnifiedReplay(packet)
        return EpochPlan(
            epoch_index=epoch_index,
            randomness=randomness,
            shard_map=shard_map,
            partition=partition,
            assignment=assignment,
            packet=packet,
            replay=replay,
            merge_delay_seconds=config.merge_delay_seconds,
        )

    # ------------------------------------------------------------------
    # packet assembly
    # ------------------------------------------------------------------
    def _build_packet(
        self,
        epoch_index: int,
        randomness: str,
        assignment: MinerAssignment,
        partition: TransactionPartition,
    ) -> UnificationPacket:
        config = self._config
        sizes = partition.shard_sizes

        merge_players = tuple(
            ShardPlayer(
                shard_id=shard, size=sizes[shard], cost=config.merge_cost
            )
            for shard in partition.small_shards(config.merge_config.lower_bound)
            if assignment.members_of(shard)
        )

        selection_inputs = []
        for shard, txs in sorted(partition.by_shard.items()):
            members = assignment.members_of(shard)
            if not txs or len(members) < config.min_miners_for_selection:
                continue
            selection_inputs.append(
                ShardSelectionInput(
                    shard_id=shard,
                    tx_ids=tuple(tx.tx_id for tx in txs),
                    fees=tuple(float(tx.fee) for tx in txs),
                    miners=tuple(members),
                )
            )

        return UnificationPacket(
            epoch_seed=f"epoch-{epoch_index}",
            leader_public=assignment.leader_public,
            randomness=randomness,
            merge_players=merge_players,
            merge_config=config.merge_config if merge_players else None,
            selection_inputs=tuple(selection_inputs),
            selection_config=config.selection_config,
        )
