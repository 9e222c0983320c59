"""Parameter unification (Sec. IV-C).

The merging and selection games are iterative: played naively, miners
would exchange choices every slot. The paper's fix: the verifiable leader
broadcasts the *inputs* — everyone's random initial choice, the miner
set, and the shard or transaction sets — and every miner replays the
deterministic algorithms locally. All honest miners then hold the
identical output, which gives two properties at once:

* **no communication** during the games (only the two leader round-trips
  — a shard submits its statistics, the leader broadcasts the packet —
  Fig. 4c's constant 2);
* **verifiability**: a block whose packer deviates from the replayed
  output (wrong merge, non-assigned transactions) is rejected by honest
  miners.

:class:`UnificationPacket` is the leader's broadcast; :class:`UnifiedReplay`
is the local re-execution plus the block verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.chain.block import Block
from repro.core.merging.algorithm import (
    IterativeMerging,
    IterativeMergingResult,
)
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics, SelectionOutcome
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.crypto.hashing import hash_items
from repro.errors import UnificationError


@dataclass(frozen=True)
class ShardSelectionInput:
    """The selection-game input for one shard: txs, fees and miners."""

    shard_id: int
    tx_ids: tuple[str, ...]
    fees: tuple[float, ...]
    miners: tuple[str, ...]  # ordered public keys; order fixes miner index
    initial_profile: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.tx_ids) != len(self.fees):
            raise UnificationError(
                f"shard {self.shard_id}: {len(self.tx_ids)} tx ids "
                f"vs {len(self.fees)} fees"
            )
        if self.initial_profile is not None and len(self.initial_profile) != len(
            self.miners
        ):
            raise UnificationError(
                f"shard {self.shard_id}: initial profile does not cover all miners"
            )


@dataclass(frozen=True)
class UnificationPacket:
    """Everything the leader broadcasts so miners can replay locally.

    All fields are plain data; the packet digest commits to them so that
    any tampering by a malicious relay is detectable.
    """

    epoch_seed: str
    leader_public: str
    randomness: str
    merge_players: tuple[ShardPlayer, ...] = ()
    merge_config: MergingGameConfig | None = None
    merge_initial: tuple[float, ...] | None = None
    selection_inputs: tuple[ShardSelectionInput, ...] = ()
    selection_config: SelectionGameConfig | None = None

    def digest(self) -> str:
        """A binding commitment to the packet contents.

        Memoized on the (immutable) instance: the commitment is checked
        on every leader-broadcast delivery and retransmission, but the
        packet never changes, so the hash is computed once per object.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        cached = hash_items(
            [
                self.epoch_seed,
                self.leader_public,
                self.randomness,
                tuple((p.shard_id, p.size, p.cost) for p in self.merge_players),
                self.merge_config,
                self.merge_initial,
                tuple(
                    (s.shard_id, s.tx_ids, s.fees, s.miners, s.initial_profile)
                    for s in self.selection_inputs
                ),
                self.selection_config,
            ],
            domain="unification-packet",
        )
        # Direct __dict__ write: legal on a frozen dataclass (frozen only
        # guards __setattr__), and the memo is not a field so == and
        # hash semantics are untouched.
        self.__dict__["_digest"] = cached
        return cached

    def derived_seed(self, purpose: str) -> int:
        """A deterministic integer seed for one algorithm's RNG.

        Both games consume randomness; deriving their seeds from the
        leader randomness keeps replays bit-identical on every miner.
        """
        return int(hash_items([self.randomness, purpose], domain="seed")[:16], 16)


class UnifiedReplay:
    """Local re-execution of Algorithms 1 and 2 from a unification packet.

    Every miner constructs one of these from the same packet; all
    resulting objects agree exactly, which is what makes the block
    verdicts below meaningful.
    """

    def __init__(self, packet: UnificationPacket) -> None:
        self._packet = packet
        # (shard_id, miner_public) -> assigned tx-id set, or None when
        # the unified run assigns the packer nothing. Block verification
        # consults the same assignment for every block a miner ever
        # broadcasts; the replay output is immutable, so the set is
        # built once per packer (False marks "not computed yet").
        self._assigned_sets: dict[
            tuple[int, str], frozenset[str] | None | bool
        ] = {}

    @property
    def packet(self) -> UnificationPacket:
        return self._packet

    # ------------------------------------------------------------------
    # Algorithm 1 replay
    # ------------------------------------------------------------------
    @cached_property
    def merging_result(self) -> IterativeMergingResult | None:
        """The unified merging output, or None when no merge was scheduled."""
        packet = self._packet
        if not packet.merge_players or packet.merge_config is None:
            return None
        algorithm = IterativeMerging(
            packet.merge_config, seed=packet.derived_seed("merging")
        )
        return algorithm.run(list(packet.merge_players))

    @cached_property
    def merged_shard_map(self) -> dict[int, int]:
        """Old shard id -> merged shard id.

        Shards in the same merge outcome collapse onto the smallest
        member id (a deterministic canonical representative); untouched
        shards map to themselves.
        """
        mapping = {
            player.shard_id: player.shard_id
            for player in self._packet.merge_players
        }
        result = self.merging_result
        if result is None:
            return mapping
        for outcome in result.new_shards:
            if not outcome.satisfied:
                continue
            representative = min(outcome.merged_shards)
            for shard_id in outcome.merged_shards:
                mapping[shard_id] = representative
        return mapping

    # ------------------------------------------------------------------
    # Algorithm 2 replay
    # ------------------------------------------------------------------
    @cached_property
    def selection_outcomes(self) -> dict[int, SelectionOutcome]:
        """The unified selection output per shard."""
        packet = self._packet
        if not packet.selection_inputs:
            return {}
        config = packet.selection_config or SelectionGameConfig()
        outcomes: dict[int, SelectionOutcome] = {}
        for shard_input in packet.selection_inputs:
            dynamics = BestReplyDynamics(
                config,
                seed=packet.derived_seed(f"selection-{shard_input.shard_id}"),
            )
            initial = (
                None
                if shard_input.initial_profile is None
                else [tuple(s) for s in shard_input.initial_profile]
            )
            outcomes[shard_input.shard_id] = dynamics.run(
                list(shard_input.fees),
                miners=len(shard_input.miners),
                initial_profile=initial,
            )
        return outcomes

    def assigned_tx_ids(self, shard_id: int, miner_public: str) -> tuple[str, ...]:
        """The transaction ids the unified run assigns to one miner."""
        shard_input = self._selection_input(shard_id)
        try:
            miner_index = shard_input.miners.index(miner_public)
        except ValueError:
            raise UnificationError(
                f"miner {miner_public[:10]} is not in shard {shard_id}'s input"
            ) from None
        outcome = self.selection_outcomes[shard_id]
        return tuple(
            shard_input.tx_ids[j] for j in outcome.profile[miner_index]
        )

    def _selection_input(self, shard_id: int) -> ShardSelectionInput:
        for shard_input in self._packet.selection_inputs:
            if shard_input.shard_id == shard_id:
                return shard_input
        raise UnificationError(f"no selection input for shard {shard_id}")

    # ------------------------------------------------------------------
    # verification of others' behavior (the Sec. IV-C enforcement)
    # ------------------------------------------------------------------
    def block_follows_selection(self, block: Block) -> bool:
        """Whether a block's body sticks to the packer's assigned set.

        "If honest ones compare others' ... transaction selection behavior
        with that output, they can find whether others are cheating on ...
        which transaction to validate." An empty block is always
        conforming (nothing was claimed).
        """
        if not block.transactions:
            return True
        key = (block.header.shard_id, block.header.miner)
        assigned = self._assigned_sets.get(key, False)
        if assigned is False:
            try:
                assigned = frozenset(self.assigned_tx_ids(*key))
            except UnificationError:
                assigned = None
            self._assigned_sets[key] = assigned
        if assigned is None:
            return False
        return all(tx.tx_id in assigned for tx in block.transactions)

    def shard_claim_consistent_with_merge(
        self, original_shard: int, claimed_shard: int
    ) -> bool:
        """Whether a merged miner claims the canonical merged shard id."""
        expected = self.merged_shard_map.get(original_shard, original_shard)
        return claimed_shard == expected


def unification_message_count(reporting_shards: int) -> int:
    """Communication times per shard incurred by parameter unification.

    Each shard performs exactly two cross-shard communications: it
    submits its transaction statistics to the verifiable leader, and it
    receives the leader's broadcast packet — the constant "2" of
    Fig. 4(c), independent of how many small shards merge.
    """
    if reporting_shards < 0:
        raise UnificationError("shard count cannot be negative")
    return 2 if reporting_shards > 0 else 0
