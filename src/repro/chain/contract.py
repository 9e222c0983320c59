"""Smart contracts.

The paper's running example (Sec. II-A): *user A enforces a contract to
transfer 2 ETH to user B if B's balance is below 1 ETH*. A contract is an
account that records a potential transfer plus the condition under which
it becomes valid; invoking the contract creates a transaction between the
sender and the contract account, and miners evaluate the condition against
the world state at confirmation time.

The evaluation section registers contracts whose condition is always true
("an unconditional transaction that transfers money to a specified
destination"), which :meth:`SmartContract.unconditional` builds directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.chain.state import WorldState


@dataclass(frozen=True)
class TransferCondition:
    """A predicate over the world state guarding a contract transfer.

    ``kind`` is a small closed vocabulary so conditions are serialisable
    and replayable (parameter unification needs deterministic re-execution):

    * ``always`` — unconditionally valid (the paper's evaluation setup);
    * ``balance_below`` — valid iff ``subject``'s balance < ``threshold``;
    * ``balance_at_least`` — valid iff ``subject``'s balance >= ``threshold``.
    """

    kind: str = "always"
    subject: str | None = None
    threshold: int = 0

    _KINDS = ("always", "balance_below", "balance_at_least")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown condition kind: {self.kind!r}")
        if self.kind != "always" and self.subject is None:
            raise ValueError(f"condition {self.kind!r} needs a subject account")

    def holds(self, state: "WorldState") -> bool:
        """Evaluate the condition against a world state."""
        if self.kind == "always":
            return True
        balance = state.balance_of(self.subject)
        if self.kind == "balance_below":
            return balance < self.threshold
        return balance >= self.threshold


@dataclass
class SmartContract:
    """A deployed smart contract.

    Parameters
    ----------
    address:
        The contract account address.
    beneficiary:
        Destination of the recorded transfer when the contract is invoked.
    condition:
        Validity predicate evaluated by miners at confirmation time.
    """

    address: str
    beneficiary: str
    condition: TransferCondition = field(default_factory=TransferCondition)
    invocation_count: int = 0

    @classmethod
    def unconditional(cls, address: str, beneficiary: str) -> "SmartContract":
        """Build a contract that unconditionally forwards to ``beneficiary``.

        This matches the contracts registered in the paper's testbed
        (Sec. VI-A).
        """
        return cls(
            address=address,
            beneficiary=beneficiary,
            condition=TransferCondition(kind="always"),
        )

    def can_execute(self, state: "WorldState") -> bool:
        """Whether the recorded condition currently holds."""
        return self.condition.holds(state)

    def record_invocation(self) -> None:
        """Bump the invocation counter (drives shard-size statistics)."""
        self.invocation_count += 1
