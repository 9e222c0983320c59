"""World state: accounts, contracts, and state transitions.

Each miner in the paper keeps a *local ledger* of the states relevant to
her shard; MaxShard miners keep the whole thing. :class:`WorldState` is
that per-miner view — a mapping of addresses to accounts and deployed
contracts, plus the ``apply_transaction`` state-transition function that
enforces balances, nonces and contract conditions (the double-spending
checks the sharding argument rests on).

An account is an immutable ``(balance, nonce)`` value: every change
replaces it, so copying the mapping copies the accounts, a speculative
overlay never copies one, and a block's image lands as one dict update.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chain.account import Account, AccountKind
from repro.chain.contract import SmartContract, TransferCondition
from repro.chain.transaction import Transaction, TransactionKind
from repro.crypto.hashing import hash_items
from repro.errors import (
    InsufficientBalanceError,
    NonceError,
    UnknownAccountError,
    UnknownContractError,
    ValidationError,
)

_USER, _CONTRACT = AccountKind.USER.value, AccountKind.CONTRACT.value


class BlockUndo:
    """The exact inverse of one applied block body.

    Records first-touch snapshots of every account and contract the
    block mutated: ``accounts`` maps an address to its prior
    ``(balance, nonce)`` — or ``None`` when the block created it — and
    ``contracts`` maps a contract address to its prior invocation count.
    :meth:`WorldState.revert_block_body` replays these to step the flat
    state back one block, which is what makes tip-delta reorgs possible
    without replaying the whole chain.
    """

    __slots__ = ("accounts", "contracts")

    def __init__(self) -> None:
        self.accounts: dict[str, tuple[int, int] | None] = {}
        self.contracts: dict[str, int] = {}


@dataclass(slots=True)
class BlockImage:
    """One applied block body: pre-block values of all it read, split
    into the present ones (``reads``) and the addresses read as absent;
    post-block values of all it mutated; and its undo. The body is a
    function of its reads, so a state holding them all ends where a full
    apply would once the writes land. Shared read-only by replicas.
    """

    reads: dict[str, tuple[int, int]]
    absent: tuple[str, ...]
    contract_reads: dict[str, tuple[int, str, TransferCondition] | None]
    writes: dict[str, tuple[int, int]]
    contract_writes: dict[str, int]
    undo: BlockUndo


@dataclass
class WorldState:
    """An account/contract store with a state-transition function.

    ``accounts`` maps an address to its ``(balance, nonce)``; the address
    is a contract account when ``contracts`` holds its code.
    """

    accounts: dict[str, tuple[int, int]] = field(default_factory=dict)
    contracts: dict[str, SmartContract] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # account management
    # ------------------------------------------------------------------
    def create_account(self, address: str, balance: int = 0) -> None:
        """Create a user account; a no-op when it already exists."""
        if address not in self.accounts:
            self.accounts[address] = (balance, 0)

    def credit(
        self, address: str, amount: int, journal: BlockUndo | None = None
    ) -> None:
        """Add ``amount`` to ``address``'s balance, creating the account
        when absent. With a ``journal``, the prior value is recorded on
        first touch."""
        if amount < 0:
            raise ValueError("credit amount must be non-negative")
        prior = self._held(address)
        if journal is not None and address not in journal.accounts:
            journal.accounts[address] = prior
        self.accounts[address] = (
            (amount, 0) if prior is None else (prior[0] + amount, prior[1])
        )

    def deploy_contract(self, contract: SmartContract, balance: int = 0) -> None:
        """Deploy a contract: registers both contract code and its account."""
        self.contracts[contract.address] = contract
        self.accounts[contract.address] = (balance, 0)

    def account(self, address: str) -> Account:
        """A read-only view of an account, raising
        :class:`UnknownAccountError` if absent."""
        held = self._held(address)
        if held is None:
            raise UnknownAccountError(address)
        deployed = self._deployed(address) is not None
        kind = AccountKind.CONTRACT if deployed else AccountKind.USER
        return Account(address, kind, *held)

    def contract(self, address: str) -> SmartContract:
        """Look up a contract, raising :class:`UnknownContractError` if absent."""
        try:
            return self.contracts[address]
        except KeyError:
            raise UnknownContractError(address) from None

    def balance_of(self, address: str) -> int:
        """Balance of ``address`` (0 for unknown accounts, like Ethereum)."""
        held = self._held(address)
        return held[0] if held is not None else 0

    def has_account(self, address: str) -> bool:
        return address in self.accounts

    def _held(self, address: str) -> tuple[int, int] | None:
        """``address``'s ``(balance, nonce)``, or None when absent.

        Split out, with :meth:`_deployed`, so :class:`SpeculativeView`
        can read through to its base without the base class paying any
        check.
        """
        return self.accounts.get(address)

    def _deployed(self, address: str) -> SmartContract | None:
        """The contract at ``address`` to read, or None when absent."""
        return self.contracts.get(address)

    # ------------------------------------------------------------------
    # state transition
    # ------------------------------------------------------------------
    def can_apply(self, tx: Transaction) -> bool:
        """Check a transaction without mutating state."""
        try:
            self._check(tx)
        except ValidationError:
            return False
        return True

    def _check(self, tx: Transaction) -> tuple[int, int]:
        """Validate ``tx``; returns its sender's ``(balance, nonce)``."""
        held = self._held(tx.sender)
        if held is None:
            raise ValidationError(f"tx {tx.short_id()}: unknown sender")
        balance, nonce = held
        if tx.nonce != nonce:
            raise NonceError(
                f"tx {tx.short_id()}: nonce {tx.nonce} != account nonce {nonce}"
            )
        total_cost = tx.amount + tx.fee
        if balance < total_cost:
            raise InsufficientBalanceError(
                f"tx {tx.short_id()}: sender balance {balance} < {total_cost}"
            )
        if tx.kind is TransactionKind.CONTRACT_CALL:
            contract = self._deployed(tx.contract)
            if contract is None:
                raise ValidationError(f"tx {tx.short_id()}: no contract")
            if not contract.can_execute(self):
                raise ValidationError(
                    f"tx {tx.short_id()}: contract {tx.contract[:10]} condition not met"
                )
        return held

    def apply_transaction(
        self,
        tx: Transaction,
        miner: str | None = None,
        journal: BlockUndo | None = None,
    ) -> None:
        """Apply ``tx``: move value, pay the fee, bump the sender nonce.

        Contract calls route value through the contract account to the
        contract's recorded beneficiary (the paper's "transaction between
        user A and that smart contract account"). Raises a
        :class:`ValidationError` subclass and leaves state untouched when
        the transaction is invalid.

        With a ``journal``, every account/contract is snapshotted on
        first touch *after* validation passes, so the journal is the
        exact inverse of the mutations actually made.
        """
        balance, nonce = self._check(tx)
        sender = tx.sender
        if journal is not None and sender not in journal.accounts:
            journal.accounts[sender] = (balance, nonce)
        self.accounts[sender] = (balance - tx.amount - tx.fee, nonce + 1)

        if tx.kind is TransactionKind.CONTRACT_CALL:
            contract = self.contract(tx.contract)
            if journal is not None and tx.contract not in journal.contracts:
                journal.contracts[tx.contract] = contract.invocation_count
            contract.record_invocation()
            beneficiary = contract.beneficiary
        else:
            beneficiary = tx.recipient
        self.credit(beneficiary, tx.amount, journal)

        if miner is not None and tx.fee:
            self.credit(miner, tx.fee, journal)

    def apply_block_body(
        self,
        transactions: tuple[Transaction, ...],
        miner: str,
        journal: BlockUndo | None = None,
    ) -> list[Transaction]:
        """Apply every valid transaction in a block body, in order.

        Returns the transactions that failed validation (a correct miner
        produces none; the list is how block validation detects cheaters).
        Pass a :class:`BlockUndo` ``journal`` to record the inverse for
        :meth:`revert_block_body`.
        """
        rejected: list[Transaction] = []
        for tx in transactions:
            try:
                self.apply_transaction(tx, miner=miner, journal=journal)
            except ValidationError:
                rejected.append(tx)
        return rejected

    def revert_block_body(self, undo: BlockUndo) -> None:
        """Step the state back one block using its :class:`BlockUndo`.

        Accounts the block created are deleted; every other touched
        account gets its prior value back, and invoked contracts their
        prior invocation counts. Applying a block with a journal and
        reverting it is an exact round trip — the tip-delta reorg tests
        hold this against the replay-from-genesis oracle.
        """
        accounts = self.accounts
        for address, prior in undo.accounts.items():
            if prior is None:
                accounts.pop(address, None)
            else:
                accounts[address] = prior
        for address, invocation_count in undo.contracts.items():
            self.contracts[address].invocation_count = invocation_count

    def record_image(
        self, transactions: tuple[Transaction, ...], undo: BlockUndo
    ) -> BlockImage:
        """The image of a body just applied with ``undo``: what it only
        read (a rejected sender, a contract, a condition's subject) still
        holds its pre-block value. On a :class:`SpeculativeView` that
        applied a block's body, it is the image of that block."""
        held, deployed, journaled = self._held, self._deployed, undo.accounts
        reads = {a: prior for a, prior in journaled.items() if prior is not None}
        absent = [a for a, prior in journaled.items() if prior is None]

        def read(address: str) -> None:
            if address not in journaled and address not in reads:
                value = held(address)
                if value is not None:
                    reads[address] = value
                elif address not in absent:
                    absent.append(address)

        contract_reads: dict[str, tuple[int, str, TransferCondition] | None] = {}
        for tx in transactions:
            read(tx.sender)
            address = tx.contract
            if address is not None and address not in contract_reads:
                contract = deployed(address)
                if contract is None:
                    contract_reads[address] = None
                    continue
                condition = contract.condition
                count = undo.contracts.get(address, contract.invocation_count)
                contract_reads[address] = (count, contract.beneficiary, condition)
                if condition.subject is not None:
                    read(condition.subject)
        writes = {address: held(address) for address in journaled}
        counts = {a: deployed(a).invocation_count for a in undo.contracts}
        return BlockImage(reads, tuple(absent), contract_reads, writes, counts, undo)

    def write_image(self, image: BlockImage) -> bool:
        """Write ``image`` iff this state holds every value it read."""
        accounts, contracts = self.accounts, self.contracts
        if not (
            image.reads.items() <= accounts.items()
            and accounts.keys().isdisjoint(image.absent)
        ):
            return False
        for address, terms in image.contract_reads.items():
            c = contracts.get(address)
            if terms != (
                None if c is None else (c.invocation_count, c.beneficiary, c.condition)
            ):
                return False
        accounts.update(image.writes)
        for address, invocation_count in image.contract_writes.items():
            contracts[address].invocation_count = invocation_count
        return True

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "WorldState":
        """Copy the state for speculative validation or replays."""
        contracts = {addr: replace(c) for addr, c in self.contracts.items()}
        return WorldState(dict(self.accounts), contracts)

    def speculative_view(self) -> "SpeculativeView":
        """An overlay for speculative transaction packing.

        Behaves exactly like :meth:`snapshot` for the check/apply
        protocol, but holds only what the speculation writes —
        O(touched) instead of O(state). The base state is never
        mutated; the view is throwaway.
        """
        return SpeculativeView(self)

    def total_supply(self) -> int:
        """Sum of all balances — conserved by fee-recycling transitions."""
        return sum(balance for balance, __ in self.accounts.values())

    def fingerprint(self) -> str:
        """A stable digest of the full state (order-independent).

        Used by the differential tests to compare the tip-delta reorg
        path against the replay-from-genesis oracle.
        """
        contracts = self.contracts
        accounts = sorted(
            (address, _CONTRACT if address in contracts else _USER, *value)
            for address, value in self.accounts.items()
        )
        codes = sorted(
            (c.address, c.beneficiary, c.invocation_count) for c in contracts.values()
        )
        return hash_items([tuple(accounts), tuple(codes)], domain="world-state")


class SpeculativeView(WorldState):
    """Overlay over a base :class:`WorldState`.

    ``self.accounts`` / ``self.contracts`` hold only the entries the
    speculation has written; every read misses through to the base.
    Account values are immutable, so none is ever copied; a contract is
    copied on its first mutating lookup. Only the check/apply protocol
    and :meth:`record_image` are supported; whole-state views
    (``snapshot``, ``fingerprint``, ``total_supply``) stay on the base
    class and would see just the overlay, so don't use them here.
    """

    def __init__(self, base: WorldState) -> None:
        super().__init__()
        self._base = base

    def create_account(self, address: str, balance: int = 0) -> None:
        if not self.has_account(address):
            self.accounts[address] = (balance, 0)

    def has_account(self, address: str) -> bool:
        return address in self.accounts or address in self._base.accounts

    def contract(self, address: str) -> SmartContract:
        found = self.contracts.get(address)
        if found is None:
            shared = self._base.contracts.get(address)
            if shared is None:
                raise UnknownContractError(address)
            found = self.contracts[address] = replace(shared)
        return found

    def _held(self, address: str) -> tuple[int, int] | None:
        held = self.accounts.get(address)
        return self._base.accounts.get(address) if held is None else held

    def _deployed(self, address: str) -> SmartContract | None:
        found = self.contracts.get(address)
        return self._base.contracts.get(address) if found is None else found
