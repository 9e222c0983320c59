"""Account-based blockchain substrate.

This package is the simulated counterpart of the paper's go-Ethereum 1.8.0
private chain: accounts with balances and nonces, smart contracts recording
conditional transfers, fee-carrying transactions, blocks with Merkle
commitments, a fork-choice ledger, a mempool, stateful validation, and the
user/contract call graph the paper proposes for sender classification.
"""

from repro.chain.account import Account, AccountKind
from repro.chain.transaction import Transaction, TransactionKind
from repro.chain.contract import SmartContract, TransferCondition
from repro.chain.block import Block, BlockHeader
from repro.chain.state import WorldState
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.validation import BlockValidator
from repro.chain.callgraph import CallGraph, SenderClass
from repro.chain.fees import FeePolicy

__all__ = [
    "Account",
    "AccountKind",
    "Transaction",
    "TransactionKind",
    "SmartContract",
    "TransferCondition",
    "Block",
    "BlockHeader",
    "WorldState",
    "Ledger",
    "Mempool",
    "BlockValidator",
    "CallGraph",
    "SenderClass",
    "FeePolicy",
]
