"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.chain.contract import SmartContract
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TransactionKind
from repro.consensus.miner import MinerIdentity
from repro.crypto.keys import KeyPair


CONTRACT_A = "0xc" + "a" * 39
CONTRACT_B = "0xc" + "b" * 39


@pytest.fixture
def keypair() -> KeyPair:
    return KeyPair.from_seed("test-keypair")


@pytest.fixture
def miners() -> list[MinerIdentity]:
    return [MinerIdentity.create(f"miner-{i}") for i in range(9)]


@pytest.fixture
def world() -> WorldState:
    """A world with two funded users and two unconditional contracts."""
    state = WorldState()
    state.create_account("0xualice", balance=1_000)
    state.create_account("0xubob", balance=1_000)
    state.deploy_contract(SmartContract.unconditional(CONTRACT_A, "0xudest-a"))
    state.deploy_contract(SmartContract.unconditional(CONTRACT_B, "0xudest-b"))
    return state


def make_call(
    sender: str,
    contract: str = CONTRACT_A,
    fee: int = 5,
    amount: int = 1,
    nonce: int = 0,
) -> Transaction:
    """A contract-call transaction with explicit fields."""
    return Transaction(
        sender=sender,
        recipient=contract,
        amount=amount,
        fee=fee,
        kind=TransactionKind.CONTRACT_CALL,
        contract=contract,
        nonce=nonce,
    )


def make_transfer(
    sender: str, recipient: str, fee: int = 5, amount: int = 1, nonce: int = 0
) -> Transaction:
    """A direct user-to-user transfer."""
    return Transaction(
        sender=sender,
        recipient=recipient,
        amount=amount,
        fee=fee,
        kind=TransactionKind.DIRECT_TRANSFER,
        nonce=nonce,
    )


def fee_sorted(pool, limit: int) -> list[Transaction]:
    """Reference fee-greedy selection: a full sort of the pool.

    ``Mempool.select_by_fee`` serves the same answer from its cached
    ranked view; the mempool tests compare the two.
    """
    return sorted(pool.pending(), key=lambda tx: (-tx.fee, tx.tx_id))[:limit]


def confirmed_ids_scan(ledger) -> set[str]:
    """Reference confirmed-id view: a walk of the canonical chain.

    ``Ledger.confirmed_tx_ids`` maintains the same set incrementally.
    """
    return {
        tx.tx_id
        for block in ledger.canonical_chain()
        for tx in block.transactions
    }
