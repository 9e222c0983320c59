"""Full-history sender classification: the paper's "trivial" path.

Sec. III-C offers two ways to decide whether a transaction's sender only
ever used the current smart contract:

* "Trivially, since miners in the MaxShard record all the transactions in
  the system, they can get the answer through checking the local states"
  — a scan over the recorded history per query ("heavy query cost");
* "A more elegant way is to let miners maintain the call graph" —
  :class:`repro.chain.callgraph.CallGraph`.

:class:`TransactionHistory` implements the trivial path faithfully (an
append-only record, classification by full scan). No run uses it: it is
the reference the call graph is differential-tested against
(``tests/chain/test_history.py``, ``tests/runtime/test_kernel_differential.py``),
and the scan-cost counters measure the query-cost gap rather than assert
it. The closed-form cost model is :mod:`repro.core.storage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.callgraph import SenderClass
from repro.chain.transaction import Transaction, TransactionKind


@dataclass
class TransactionHistory:
    """An append-only transaction record with scan-based classification."""

    records: list[Transaction] = field(default_factory=list)
    scans_performed: int = 0
    records_scanned: int = 0

    def append(self, tx: Transaction) -> None:
        self.records.append(tx)

    def extend(self, txs: list[Transaction]) -> None:
        self.records.extend(txs)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # scan-based queries (each walks the whole history, by design)
    # ------------------------------------------------------------------
    def classify(self, sender: str) -> SenderClass:
        """Classify a sender by scanning every recorded transaction."""
        self.scans_performed += 1
        contracts: set[str] = set()
        direct = False
        seen = False
        for tx in self.records:
            self.records_scanned += 1
            if tx.sender != sender and not (
                tx.kind is TransactionKind.DIRECT_TRANSFER and tx.recipient == sender
            ):
                continue
            seen = True
            if tx.kind is TransactionKind.DIRECT_TRANSFER:
                direct = True
            elif tx.sender == sender:
                contracts.add(tx.contract)
        if not seen:
            return SenderClass.UNKNOWN
        if direct:
            return SenderClass.DIRECT_SENDER
        if len(contracts) == 1:
            return SenderClass.SINGLE_CONTRACT
        if len(contracts) > 1:
            return SenderClass.MULTI_CONTRACT
        return SenderClass.UNKNOWN

    def is_single_contract(self, sender: str) -> bool:
        """The shardability predicate, by full scan."""
        return self.classify(sender) is SenderClass.SINGLE_CONTRACT

    def sole_contract_of(self, sender: str) -> str | None:
        """The unique contract of a single-contract sender, by scan."""
        if not self.is_single_contract(sender):
            return None
        for tx in self.records:
            if tx.sender == sender and tx.is_contract_call:
                return tx.contract
        return None

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def mean_scan_cost(self) -> float:
        """Average records walked per classification query."""
        if self.scans_performed == 0:
            return 0.0
        return self.records_scanned / self.scans_performed
