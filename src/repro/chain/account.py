"""Accounts: externally-owned and contract accounts.

Mirrors the Ethereum account model the paper builds on: an account has an
address, a spendable balance and a nonce that orders its transactions.
The world state keeps each account as an immutable ``(balance, nonce)``
value under its address (:mod:`repro.chain.state`), and an address is a
contract account when it holds contract code (see
:mod:`repro.chain.contract`). :class:`Account` is a read-only view of one
such entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AccountKind(enum.Enum):
    """Whether an account is user-controlled or a smart contract."""

    USER = "user"
    CONTRACT = "contract"


@dataclass(frozen=True, slots=True)
class Account:
    """A read-only view of one world-state account."""

    address: str
    kind: AccountKind = AccountKind.USER
    balance: int = 0
    nonce: int = 0
