"""Accounts: externally-owned and contract accounts.

Mirrors the Ethereum account model the paper builds on: an account has an
address, a spendable balance and a nonce that orders its transactions.
Contract accounts additionally carry contract code (see
:mod:`repro.chain.contract`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import InsufficientBalanceError


class AccountKind(enum.Enum):
    """Whether an account is user-controlled or a smart contract."""

    USER = "user"
    CONTRACT = "contract"


@dataclass(slots=True)
class Account:
    """A mutable account record inside the world state."""

    address: str
    kind: AccountKind = AccountKind.USER
    balance: int = 0
    nonce: int = 0

    def credit(self, amount: int) -> None:
        """Add ``amount`` (wei-like integer units) to the balance."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        self.balance += amount

    def debit(self, amount: int) -> None:
        """Remove ``amount`` from the balance; raise if it would go negative."""
        if amount < 0:
            raise ValueError("debit amount must be non-negative")
        if amount > self.balance:
            raise InsufficientBalanceError(
                f"account {self.address}: balance {self.balance} < debit {amount}"
            )
        self.balance -= amount

    def bump_nonce(self) -> None:
        """Advance the account nonce after a confirmed transaction."""
        self.nonce += 1

    def snapshot(self) -> "Account":
        """Return an independent copy (used by speculative validation)."""
        return Account(
            address=self.address, kind=self.kind, balance=self.balance, nonce=self.nonce
        )
