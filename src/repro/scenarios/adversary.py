"""Active adversary behaviors used by the scenario library.

These plug into the :class:`repro.consensus.MinerBehavior` strategy
hooks (``choose_parent`` / ``broadcast_targets`` / ``observe_forged``)
and run through the unmodified engine: adversarial blocks travel the
same network, pay the same latency, and face the same validation as
honest ones. Nothing here touches the simulation loop.
"""

from __future__ import annotations

from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.consensus.miner import HonestBehavior, MinerBehavior


class ForkTracker:
    """Shared coalition state: the hashes of the private fork.

    Each coalition member holds a reference to the same tracker. When a
    member forges a fork block she registers it here (via
    ``observe_forged``, i.e. before broadcast), and every member picks
    her next parent as the deepest tracker block her *own ledger* knows
    — so the coalition converges on one branch without any out-of-band
    coordination, while still being subject to real propagation delays.
    """

    def __init__(self) -> None:
        self._hashes: list[str] = []
        self._heights: dict[str, int] = {}

    def note(self, block) -> None:
        block_hash = block.block_hash
        if block_hash in self._heights:
            return
        height = block.header.height
        self._heights[block_hash] = height
        # Keep ascending height order; forks are appended at the tip in
        # the common case so this is O(1) amortized.
        index = len(self._hashes)
        while index > 0 and self._heights[self._hashes[index - 1]] > height:
            index -= 1
        self._hashes.insert(index, block_hash)

    def deepest_known(self, ledger) -> str | None:
        """The highest fork block the given ledger has — the coalition
        member's best extension point — or ``None`` before any exists."""
        for block_hash in reversed(self._hashes):
            if ledger.knows(block_hash):
                return block_hash
        return None

    @property
    def depth(self) -> int:
        return len(self._hashes)


class CensorshipForkBehavior(MinerBehavior):
    """Coalition member mining an empty private fork from genesis.

    The attack of Sec. III-B: a coalition controlling a majority of a
    shard's members outpaces the honest branch with transaction-free
    blocks, so the shard confirms nothing (censorship) and honest
    confirmations get reorged away (``tx.reverted`` in the trace). With
    a minority coalition the honest branch wins and the fork stays a
    curiosity — exactly the binomial threshold Eq. 3 quantifies.
    """

    def __init__(self, tracker: ForkTracker) -> None:
        self._tracker = tracker

    @property
    def tracker(self) -> ForkTracker:
        return self._tracker

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        # Censorship: the fork carries no transactions at all.
        return []

    def choose_parent(self, ledger) -> str | None:
        tip = self._tracker.deepest_known(ledger)
        return tip if tip is not None else ledger.genesis_hash

    def observe_forged(self, block) -> None:
        self._tracker.note(block)


class WithholdingBehavior(MinerBehavior):
    """Mines honestly but never announces blocks to the victim(s).

    Combined with a network partition isolating the victim from the
    honest majority, this is an eclipse-lite: the victim's chain view
    freezes at whatever it had when the partition started, while the
    rest of the shard advances.
    """

    def __init__(self, withhold_from, inner: MinerBehavior | None = None) -> None:
        if isinstance(withhold_from, str):
            withhold_from = (withhold_from,)
        self._excluded = frozenset(withhold_from)
        self._inner = inner or HonestBehavior()

    @property
    def excluded(self) -> frozenset[str]:
        return self._excluded

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        return self._inner.pick_transactions(mempool, capacity)

    def claimed_shard(self, true_shard: int) -> int:
        return self._inner.claimed_shard(true_shard)

    def broadcast_targets(self, node_ids: tuple[str, ...]) -> list[str] | None:
        return [node_id for node_id in node_ids if node_id not in self._excluded]
