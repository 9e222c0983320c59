"""Transaction and state sharding (Sec. III-A).

"Transactions sent by users who only participate in the same smart
contract naturally form a shard ... Transactions sent by these [other]
users form a unique shard, called the MaxShard."

:func:`form_shards` derives the shard map from observed traffic;
:func:`partition_transactions` splits a workload accordingly and computes
the per-shard transaction fractions the verifiable leader broadcasts for
miner assignment (Sec. III-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.callgraph import CallGraph, SenderClass
from repro.chain.transaction import Transaction

#: The shard that holds every transaction whose sender is *not*
#: single-contract. Its miners record all system state.
MAXSHARD_ID = 0


@dataclass(frozen=True)
class ShardMap:
    """The system's shard topology: contract address -> ShardID.

    Shard ids are assigned deterministically (contracts sorted by
    address) so every miner derives the identical map from the same
    observed traffic — a parameter-unification prerequisite.
    """

    contract_to_shard: dict[str, int]

    @property
    def shard_ids(self) -> list[int]:
        """All shard ids, MaxShard first."""
        return [MAXSHARD_ID] + sorted(self.contract_to_shard.values())

    @property
    def shard_count(self) -> int:
        """Total number of shards including the MaxShard."""
        return len(self.contract_to_shard) + 1

    def shard_of_transaction(self, tx: Transaction, callgraph: CallGraph) -> int:
        """Which shard validates ``tx``, per the Sec. III-A rule.

        Single-contract senders map to their contract's shard; everyone
        else (multi-contract or direct senders) maps to the MaxShard.
        """
        sender_class = callgraph.classify(tx.sender)
        if sender_class is SenderClass.SINGLE_CONTRACT and tx.is_contract_call:
            contract = callgraph.sole_contract_of(tx.sender)
            if contract == tx.contract and contract in self.contract_to_shard:
                return self.contract_to_shard[contract]
        return MAXSHARD_ID


def form_shards(transactions: list[Transaction]) -> tuple[ShardMap, CallGraph]:
    """Derive the shard topology from a set of observed transactions.

    Every contract that has at least one single-contract sender gets its
    own shard; ids start at 1 (0 is the MaxShard). Returns the map plus
    the call graph built along the way, which callers reuse for routing.
    """
    callgraph = CallGraph()
    callgraph.observe_many(transactions)

    shardable_contracts: set[str] = set()
    seen_senders: set[str] = set()
    for tx in transactions:
        if tx.sender in seen_senders:
            continue
        seen_senders.add(tx.sender)
        contract = callgraph.sole_contract_of(tx.sender)
        if contract is not None:
            shardable_contracts.add(contract)

    contract_to_shard = {
        contract: shard_id
        for shard_id, contract in enumerate(sorted(shardable_contracts), start=1)
    }
    return ShardMap(contract_to_shard=contract_to_shard), callgraph


@dataclass(frozen=True)
class TransactionPartition:
    """A workload split into per-shard transaction lists."""

    by_shard: dict[int, list[Transaction]]

    @property
    def shard_sizes(self) -> dict[int, int]:
        """The paper's *size of a shard*: its transaction count."""
        return {shard: len(txs) for shard, txs in self.by_shard.items()}

    @property
    def total_transactions(self) -> int:
        return sum(len(txs) for txs in self.by_shard.values())

    def fractions(self) -> dict[int, float]:
        """Per-shard transaction fractions (the leader's ``beta_i``), in %.

        These are what the verifiable leader requests from MaxShard miners
        and broadcasts so miners can derive their shard (Sec. III-B).
        """
        total = self.total_transactions
        if total == 0:
            return {shard: 0.0 for shard in self.by_shard}
        return {
            shard: 100.0 * len(txs) / total for shard, txs in self.by_shard.items()
        }

    def small_shards(self, lower_bound: int) -> list[int]:
        """Shards below the merging size threshold ``L`` (constraint (1))."""
        return sorted(
            shard
            for shard, txs in self.by_shard.items()
            if shard != MAXSHARD_ID and len(txs) < lower_bound
        )


def partition_transactions(
    transactions: list[Transaction],
    shard_map: ShardMap | None = None,
    callgraph: CallGraph | None = None,
) -> TransactionPartition:
    """Split a workload into per-shard lists under the Sec. III-A rule.

    When ``shard_map`` is omitted it is derived from the workload itself
    (the MaxShard view every miner can reconstruct).
    """
    if shard_map is None or callgraph is None:
        shard_map, callgraph = form_shards(transactions)

    by_shard: dict[int, list[Transaction]] = {
        shard: [] for shard in shard_map.shard_ids
    }
    for tx in transactions:
        shard = shard_map.shard_of_transaction(tx, callgraph)
        by_shard.setdefault(shard, []).append(tx)
    return TransactionPartition(by_shard=by_shard)
