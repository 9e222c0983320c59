"""Tests for repro.chain.account.

The world state keeps an account as an immutable ``(balance, nonce)``
value, so an account changes only through :class:`WorldState`; an
:class:`Account` is a read-only view of one entry.
"""

import dataclasses

import pytest

from repro.chain.account import Account, AccountKind
from repro.chain.contract import SmartContract
from repro.chain.state import WorldState
from repro.errors import InsufficientBalanceError
from tests.conftest import make_transfer


def _state(balance: int = 0) -> WorldState:
    state = WorldState()
    state.create_account("0xu1", balance=balance)
    return state


class TestAccount:
    def test_defaults(self):
        account = _state().account("0xu1")
        assert account == Account(address="0xu1")
        assert account.kind is AccountKind.USER
        assert account.balance == 0
        assert account.nonce == 0

    def test_view_is_read_only(self):
        account = _state(10).account("0xu1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            account.balance = 0  # type: ignore[misc]

    def test_contract_kind(self):
        state = WorldState()
        state.deploy_contract(SmartContract.unconditional("0xc1", "0xu1"))
        assert state.account("0xc1").kind is AccountKind.CONTRACT

    def test_credit(self):
        state = _state()
        state.credit("0xu1", 10)
        state.credit("0xu1", 5)
        assert state.accounts["0xu1"] == (15, 0)

    def test_credit_creates_account(self):
        state = WorldState()
        state.credit("0xu2", 7)
        assert state.accounts["0xu2"] == (7, 0)

    def test_credit_rejects_negative(self):
        state = _state()
        with pytest.raises(ValueError):
            state.credit("0xu1", -1)
        assert state.accounts["0xu1"] == (0, 0)

    def test_debit(self):
        state = _state(10)
        state.apply_transaction(make_transfer("0xu1", "0xu2", amount=3, fee=1))
        assert state.account("0xu1").balance == 6

    def test_debit_overdraft_rejected(self):
        state = _state(3)
        with pytest.raises(InsufficientBalanceError):
            state.apply_transaction(make_transfer("0xu1", "0xu2", amount=3, fee=1))
        assert state.accounts["0xu1"] == (3, 0)  # unchanged on failure

    def test_debit_rejects_negative(self):
        # A negative debit cannot be expressed: a transaction refuses it.
        with pytest.raises(ValueError):
            make_transfer("0xu1", "0xu2", amount=-1)
        with pytest.raises(ValueError):
            make_transfer("0xu1", "0xu2", fee=-1)

    def test_debit_exact_balance(self):
        state = _state(5)
        state.apply_transaction(make_transfer("0xu1", "0xu2", amount=4, fee=1))
        assert state.account("0xu1").balance == 0

    def test_bump_nonce(self):
        state = _state(100)
        state.apply_transaction(make_transfer("0xu1", "0xu2", nonce=0))
        state.apply_transaction(make_transfer("0xu1", "0xu2", nonce=1))
        assert state.account("0xu1").nonce == 2

    def test_snapshot_is_independent(self):
        state = _state(10)
        state.accounts["0xu1"] = (10, 3)
        copy = state.snapshot()
        copy.credit("0xu1", 5)
        assert state.accounts["0xu1"] == (10, 3)
        assert copy.accounts["0xu1"] == (15, 3)
