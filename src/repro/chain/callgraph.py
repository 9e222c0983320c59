"""The user/contract call graph and sender classification.

Sec. III-C: "A more elegant way is to let miners maintain the call graph
among smart contracts and users locally. In this way, miners can check the
call graph instead of remotely referring to the whole history." The paper
defers the call-graph design to future work; we implement it here as the
sender-classification oracle the sharding core plugs in.

The graph is bipartite-ish: user nodes connect to the contract nodes they
have invoked, and to user nodes they have transacted with directly. A
sender is *single-contract* (shardable) iff her neighbourhood is exactly
one contract node.

Shard formation asks these questions once per *transaction* while the
answers only change once per *edge*, so the expensive derivation —
classification plus the sole-contract lookup — is memoized per sender in
a :class:`~repro.runtime.cache.MemoCache`. :meth:`CallGraph.observe`
invalidates exactly the senders whose neighbourhood (or whose node kind,
which can flip when an address is later seen in the other role) the new
edge may have changed, so interleaved observe/classify streams — the
full-node protocol path — stay correct.
"""

from __future__ import annotations

import enum

from repro.chain.transaction import Transaction, TransactionKind
from repro.runtime.cache import MemoCache

_USER = "user"
_CONTRACT = "contract"


class SenderClass(enum.Enum):
    """The three sender patterns of Fig. 1."""

    SINGLE_CONTRACT = "single_contract"  # Fig. 1(a): shardable
    MULTI_CONTRACT = "multi_contract"  # Fig. 1(b): MaxShard
    DIRECT_SENDER = "direct_sender"  # Fig. 1(c): MaxShard
    UNKNOWN = "unknown"  # never seen a transaction


class CallGraph:
    """Tracks which contracts and users each sender has interacted with."""

    def __init__(self) -> None:
        #: node -> current kind; later observations win, matching the
        #: behavior of attribute overwrites in the original graph store.
        self._kind: dict[str, str] = {}
        #: undirected adjacency.
        self._adjacency: dict[str, set[str]] = {}
        #: sender -> (classification, sole contract or None).
        self._analysis: MemoCache[str, tuple[SenderClass, str | None]] = MemoCache(
            name="callgraph.analysis"
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _set_kind(self, node: str, kind: str) -> None:
        previous = self._kind.get(node)
        if previous == kind:
            return
        self._kind[node] = kind
        self._adjacency.setdefault(node, set())
        if previous is not None:
            # The node switched roles; every neighbour's classification
            # may change (their contract/user neighbourhoods did).
            for neighbour in self._adjacency[node]:
                self._analysis.invalidate(neighbour)

    def _add_edge(self, a: str, b: str) -> None:
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._analysis.invalidate(a)
        self._analysis.invalidate(b)

    def observe(self, tx: Transaction) -> None:
        """Record one transaction's sender/target edge."""
        self._set_kind(tx.sender, _USER)
        if tx.kind is TransactionKind.CONTRACT_CALL:
            self._set_kind(tx.contract, _CONTRACT)
            self._add_edge(tx.sender, tx.contract)
        else:
            self._set_kind(tx.recipient, _USER)
            self._add_edge(tx.sender, tx.recipient)

    def observe_many(self, txs: list[Transaction]) -> None:
        for tx in txs:
            self.observe(tx)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _analyze(self, sender: str) -> tuple[SenderClass, str | None]:
        """Derive (classification, sole contract) in one adjacency walk."""
        if sender not in self._kind:
            return (SenderClass.UNKNOWN, None)
        contracts: list[str] = []
        for peer in self._adjacency.get(sender, ()):
            kind = self._kind.get(peer)
            if kind == _USER:
                return (SenderClass.DIRECT_SENDER, None)
            if kind == _CONTRACT:
                contracts.append(peer)
        if len(contracts) == 1:
            return (SenderClass.SINGLE_CONTRACT, contracts[0])
        if len(contracts) > 1:
            return (SenderClass.MULTI_CONTRACT, None)
        return (SenderClass.UNKNOWN, None)

    def classify(self, sender: str) -> SenderClass:
        """Classify a sender into one of the Fig. 1 patterns."""
        return self._analysis.get(sender, lambda: self._analyze(sender))[0]

    def sole_contract_of(self, sender: str) -> str | None:
        """The unique contract of a single-contract sender, else None."""
        return self._analysis.get(sender, lambda: self._analyze(sender))[1]
