"""Miner identities and packing behaviors.

A miner is a key pair plus a *behavior* deciding which pending
transactions to pack next. The paper contrasts three behaviors:

* fee-greedy (default Ethereum — everyone picks the same set, Sec. II-B);
* game-assigned (the congestion-game selection of Sec. IV-B, installed via
  parameter unification);
* cheating variants used by the security experiments (claiming a wrong
  shard, packing non-assigned transactions).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.chain.mempool import Mempool
from repro.chain.transaction import Transaction
from repro.crypto.keys import KeyPair


@dataclass(frozen=True)
class MinerIdentity:
    """A miner's stable identity: key pair plus a human-readable name."""

    name: str
    keypair: KeyPair

    @classmethod
    def create(cls, name: str) -> "MinerIdentity":
        return cls(name=name, keypair=KeyPair.from_seed(f"miner\x1f{name}"))

    @property
    def public(self) -> str:
        return self.keypair.public

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MinerIdentity({self.name})"


class MinerBehavior(abc.ABC):
    """Strategy object: which transactions does this miner pack next?"""

    @abc.abstractmethod
    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        """Return at most ``capacity`` transactions to pack into a block."""

    def claimed_shard(self, true_shard: int) -> int:
        """The ShardID the miner writes into her block headers.

        Honest miners claim their true shard; cheating behaviors override.
        """
        return true_shard

    # The three hooks below are the adversary surface of the scenario
    # suite (repro.scenarios). They default to "do exactly what an
    # honest miner does", so every pre-existing behavior — and every
    # recorded trace-digest baseline — is untouched unless a scenario
    # installs an overriding behavior.

    def choose_parent(self, ledger) -> str | None:
        """The block hash to mine on, or ``None`` for the chain head.

        Honest miners extend their canonical head (longest chain). A
        forking adversary overrides this to extend a private branch —
        e.g. the coalition-pure censorship fork of the shard-takeover
        scenario. A non-``None`` return must be a hash the ledger knows.
        """
        return None

    def broadcast_targets(self, node_ids: tuple[str, ...]) -> list[str] | None:
        """Who receives this miner's freshly forged blocks.

        ``None`` (honest) broadcasts to every node. A withholding
        adversary returns a restricted recipient list — e.g. everyone
        except the eclipsed victim.
        """
        return None

    def observe_forged(self, block) -> None:
        """Called with each block this miner forges, before broadcast.

        Honest miners ignore it; coalition behaviors use it to keep a
        shared view of their private fork without touching the network.
        """

    def note_confirmed(self, confirmed_tx_ids: set[str]) -> None:
        """Hint: these transactions are canonically confirmed locally.

        Called after each forge so behaviors holding per-transaction
        working sets can compact them. Stateless behaviors ignore it; a
        compaction must never change which transactions the behavior
        would still pick (confirmed transactions are already out of the
        mempool, so dropping them is unobservable)."""


class HonestBehavior(MinerBehavior):
    """Fee-greedy honest miner: the Ethereum default of Sec. II-B."""

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        return mempool.select_by_fee(capacity)


class SoloFallbackBehavior(HonestBehavior):
    """Fee-greedy packing adopted after a leader-silence timeout.

    Behaviorally identical to :class:`HonestBehavior`; the distinct type
    lets tests and observability tell a deliberate degradation (the shard
    kept confirming without a unification packet) from the default.
    """


class AssignedSelectionBehavior(MinerBehavior):
    """Packs exactly the transaction set the selection game assigned.

    The assignment arrives through parameter unification, so the behavior
    holds the *ids*; confirmed transactions silently drop out of the set.
    """

    #: Below this size the per-pick scan is cheaper than compacting.
    _COMPACT_MIN = 32

    def __init__(self, assigned_tx_ids: list[str]) -> None:
        self._assigned = list(assigned_tx_ids)
        self._noted_confirmed = 0

    @property
    def assigned_tx_ids(self) -> list[str]:
        return list(self._assigned)

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        picked = mempool.select_ids(self._assigned)
        return picked[:capacity]

    def note_confirmed(self, confirmed_tx_ids: set[str]) -> None:
        """Drop already-confirmed ids from the assigned working set.

        Gated: small sets are left alone, and the O(assigned) rebuild
        only runs after the local confirmed set grew by at least half
        the current assignment since the last compaction — so a run
        scans each assignment O(log n) times total, not once per forge.
        Confirmed transactions are out of every mempool (reverted ones
        are never re-pooled), so ``select_ids`` can never pick them
        again and the compaction is behavior-invariant.
        """
        assigned = self._assigned
        if len(assigned) < self._COMPACT_MIN:
            return
        if len(confirmed_tx_ids) - self._noted_confirmed < len(assigned) // 2:
            return
        self._noted_confirmed = len(confirmed_tx_ids)
        kept = [tx_id for tx_id in assigned if tx_id not in confirmed_tx_ids]
        if len(kept) != len(assigned):
            self._assigned = kept


class ShardLiarBehavior(MinerBehavior):
    """A cheater claiming membership of a shard she was not assigned to.

    Honest receivers run the membership verification of Sec. III-C and
    reject her blocks — the failure-injection path of the security tests.
    """

    def __init__(self, fake_shard: int, inner: MinerBehavior | None = None) -> None:
        self._fake_shard = fake_shard
        self._inner = inner or HonestBehavior()

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        return self._inner.pick_transactions(mempool, capacity)

    def claimed_shard(self, true_shard: int) -> int:
        return self._fake_shard


class SelectionLiarBehavior(MinerBehavior):
    """A cheater ignoring the unified selection and grabbing top fees.

    Under parameter unification every honest miner can recompute the
    assignment locally and reject this miner's blocks (Sec. IV-C).
    """

    def __init__(self) -> None:
        self._greedy = HonestBehavior()

    def pick_transactions(self, mempool: Mempool, capacity: int) -> list[Transaction]:
        return self._greedy.pick_transactions(mempool, capacity)
