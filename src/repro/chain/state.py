"""World state: accounts, contracts, and state transitions.

Each miner in the paper keeps a *local ledger* of the states relevant to
her shard; MaxShard miners keep the whole thing. :class:`WorldState` is
that per-miner view — a mapping of addresses to accounts and deployed
contracts, plus the ``apply_transaction`` state-transition function that
enforces balances, nonces and contract conditions (the double-spending
checks the sharding argument rests on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """One applied block body: pre-block values of all it read (``None``:
    absent), post-block values of all it mutated, and its undo. The body
    is a function of its reads, so a state holding them all ends where a
    full apply would once the writes land. Shared read-only by replicas.
    """

    reads: dict[str, tuple[int, int] | None]
    contract_reads: dict[str, tuple[int, str, TransferCondition] | None]
    writes: dict[str, tuple[int, int]]
    contract_writes: dict[str, int]
    undo: BlockUndo


@dataclass
class WorldState:
    """A mutable account/contract store with a state-transition function."""

    accounts: dict[str, Account] = field(default_factory=dict)
    contracts: dict[str, SmartContract] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # account management
    # ------------------------------------------------------------------
    def create_account(self, address: str, balance: int = 0) -> Account:
        """Create a user account; idempotent when it already exists."""
        if address in self.accounts:
            return self.accounts[address]
        account = Account(address=address, kind=AccountKind.USER, balance=balance)
        self.accounts[address] = account
        return account

    def deploy_contract(self, contract: SmartContract, balance: int = 0) -> None:
        """Deploy a contract: registers both contract code and its account."""
        self.contracts[contract.address] = contract
        self.accounts[contract.address] = Account(
            address=contract.address, kind=AccountKind.CONTRACT, balance=balance
        )

    def account(self, address: str) -> Account:
        """Look up an account, raising :class:`UnknownAccountError` if absent."""
        try:
            return self.accounts[address]
        except KeyError:
            raise UnknownAccountError(address) from None

    def contract(self, address: str) -> SmartContract:
        """Look up a contract, raising :class:`UnknownContractError` if absent."""
        try:
            return self.contracts[address]
        except KeyError:
            raise UnknownContractError(address) from None

    def balance_of(self, address: str) -> int:
        """Balance of ``address`` (0 for unknown accounts, like Ethereum)."""
        account = self.accounts.get(address)
        return account.balance if account is not None else 0

    def has_account(self, address: str) -> bool:
        return address in self.accounts

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

    def _check(self, tx: Transaction) -> None:
        sender = self._resident(tx.sender)
        if sender is None:
            raise ValidationError(f"tx {tx.short_id()}: unknown sender")
        if tx.nonce != sender.nonce:
            raise NonceError(
                f"tx {tx.short_id()}: nonce {tx.nonce} != account nonce {sender.nonce}"
            )
        total_cost = tx.amount + tx.fee
        if sender.balance < total_cost:
            raise InsufficientBalanceError(
                f"tx {tx.short_id()}: sender balance {sender.balance} < {total_cost}"
            )
        if tx.kind is TransactionKind.CONTRACT_CALL:
            try:
                contract = self.contract(tx.contract)
            except UnknownContractError:
                raise ValidationError(f"tx {tx.short_id()}: no contract") from None
            if not contract.can_execute(self):
                raise ValidationError(
                    f"tx {tx.short_id()}: contract {tx.contract[:10]} condition not met"
                )

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
        self._check(tx)
        sender = self.account(tx.sender)
        if journal is not None and tx.sender not in journal.accounts:
            journal.accounts[tx.sender] = (sender.balance, sender.nonce)
        sender.debit(tx.amount + tx.fee)
        sender.bump_nonce()

        if tx.kind is TransactionKind.CONTRACT_CALL:
            contract = self.contract(tx.contract)
            if journal is not None and tx.contract not in journal.contracts:
                journal.contracts[tx.contract] = contract.invocation_count
            contract.record_invocation()
            beneficiary_addr = contract.beneficiary
        else:
            beneficiary_addr = tx.recipient

        beneficiary = self._resident(beneficiary_addr)
        if journal is not None and beneficiary_addr not in journal.accounts:
            journal.accounts[beneficiary_addr] = (
                None
                if beneficiary is None
                else (beneficiary.balance, beneficiary.nonce)
            )
        if beneficiary is None:
            beneficiary = self.create_account(beneficiary_addr)
        beneficiary.credit(tx.amount)

        if miner is not None and tx.fee:
            miner_account = self._resident(miner)
            if journal is not None and miner not in journal.accounts:
                journal.accounts[miner] = (
                    None
                    if miner_account is None
                    else (miner_account.balance, miner_account.nonce)
                )
            if miner_account is None:
                miner_account = self.create_account(miner)
            miner_account.credit(tx.fee)

    def _resident(self, address: str) -> Account | None:
        """The mutable account at ``address``, or None when absent.

        Split out so :class:`SpeculativeView` can materialize overlay
        copies on first touch without the base class paying any check.
        """
        return self.accounts.get(address)

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
        account gets its prior balance/nonce restored, and invoked
        contracts their prior invocation counts. Applying a block with a
        journal and reverting it is an exact round trip — the tip-delta
        reorg tests hold this against the replay-from-genesis oracle.
        """
        for address, prior in undo.accounts.items():
            if prior is None:
                self.accounts.pop(address, None)
            else:
                account = self.accounts[address]
                account.balance, account.nonce = prior
        for address, invocation_count in undo.contracts.items():
            self.contracts[address].invocation_count = invocation_count

    def _held(self, address: str) -> tuple[int, int] | None:
        account = self.accounts.get(address)
        return None if account is None else (account.balance, account.nonce)

    def _terms(self, address: str) -> tuple[int, str, TransferCondition] | None:
        c = self.contracts.get(address)
        return None if c is None else (c.invocation_count, c.beneficiary, c.condition)

    def record_image(
        self, transactions: tuple[Transaction, ...], undo: BlockUndo
    ) -> BlockImage:
        """The image of a body just applied with ``undo``: what it only
        read (a rejected sender, a contract, a condition's subject) still
        holds its pre-block value."""
        reads = dict(undo.accounts)
        contract_reads: dict[str, tuple[int, str, TransferCondition] | None] = {}
        for tx in transactions:
            reads.setdefault(tx.sender, self._held(tx.sender))
            address = tx.contract
            if address is not None and address not in contract_reads:
                terms = self._terms(address)
                if terms is not None:
                    terms = (undo.contracts.get(address, terms[0]),) + terms[1:]
                    subject = terms[2].subject
                    if subject is not None:
                        reads.setdefault(subject, self._held(subject))
                contract_reads[address] = terms
        writes = {address: self._held(address) for address in undo.accounts}
        counts = {a: self.contracts[a].invocation_count for a in undo.contracts}
        return BlockImage(reads, contract_reads, writes, counts, undo)

    def write_image(self, image: BlockImage) -> bool:
        """Write ``image`` iff this state holds every value it read."""
        held, terms = self._held, self._terms
        if any(held(a) != value for a, value in image.reads.items()) or any(
            terms(a) != value for a, value in image.contract_reads.items()
        ):
            return False
        accounts = self.accounts
        for address, (balance, nonce) in image.writes.items():
            account = accounts.get(address)
            if account is None:
                accounts[address] = Account(address, balance=balance, nonce=nonce)
            else:
                account.balance, account.nonce = balance, nonce
        for address, invocation_count in image.contract_writes.items():
            self.contracts[address].invocation_count = invocation_count
        return True

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "WorldState":
        """Deep-copy the state for speculative validation or replays."""
        clone = WorldState()
        clone.accounts = {
            addr: account.snapshot() for addr, account in self.accounts.items()
        }
        clone.contracts = {
            addr: SmartContract(
                address=c.address,
                beneficiary=c.beneficiary,
                condition=c.condition,
                invocation_count=c.invocation_count,
            )
            for addr, c in self.contracts.items()
        }
        return clone

    def speculative_view(self) -> "SpeculativeView":
        """A copy-on-write overlay for speculative transaction packing.

        Behaves exactly like :meth:`snapshot` for the check/apply
        protocol, but copies only the accounts and contracts the
        speculation actually touches — O(touched) instead of O(state).
        The base state is never mutated; the view is throwaway.
        """
        return SpeculativeView(self)

    def total_supply(self) -> int:
        """Sum of all balances — conserved by fee-recycling transitions."""
        return sum(account.balance for account in self.accounts.values())

    def fingerprint(self) -> str:
        """A stable digest of the full state (order-independent).

        Used by the differential tests to compare the tip-delta reorg
        path against the replay-from-genesis oracle.
        """
        return hash_items(
            [
                tuple(
                    sorted(
                        (a.address, a.kind.value, a.balance, a.nonce)
                        for a in self.accounts.values()
                    )
                ),
                tuple(
                    sorted(
                        (c.address, c.beneficiary, c.invocation_count)
                        for c in self.contracts.values()
                    )
                ),
            ],
            domain="world-state",
        )


class SpeculativeView(WorldState):
    """Copy-on-write overlay over a base :class:`WorldState`.

    ``self.accounts`` / ``self.contracts`` hold only the entries the
    speculation has touched; every miss falls through to the base and —
    for mutating lookups — materializes a private copy on first touch.
    Only the check/apply protocol is supported; whole-state views
    (``snapshot``, ``fingerprint``, ``total_supply``) stay on the base
    class and would see just the overlay, so don't use them here.
    """

    def __init__(self, base: WorldState) -> None:
        super().__init__()
        self._base = base

    def create_account(self, address: str, balance: int = 0) -> Account:
        existing = self._resident(address)
        if existing is not None:
            return existing
        return super().create_account(address, balance)

    def account(self, address: str) -> Account:
        found = self.accounts.get(address)
        if found is None:
            shared = self._base.accounts.get(address)
            if shared is None:
                raise UnknownAccountError(address)
            found = shared.snapshot()
            self.accounts[address] = found
        return found

    def contract(self, address: str) -> SmartContract:
        found = self.contracts.get(address)
        if found is None:
            shared = self._base.contracts.get(address)
            if shared is None:
                raise UnknownContractError(address)
            found = SmartContract(
                address=shared.address,
                beneficiary=shared.beneficiary,
                condition=shared.condition,
                invocation_count=shared.invocation_count,
            )
            self.contracts[address] = found
        return found

    def _resident(self, address: str) -> Account | None:
        found = self.accounts.get(address)
        if found is None:
            shared = self._base.accounts.get(address)
            if shared is None:
                return None
            found = shared.snapshot()
            self.accounts[address] = found
        return found

    def balance_of(self, address: str) -> int:
        found = self.accounts.get(address)
        if found is None:
            found = self._base.accounts.get(address)
        return found.balance if found is not None else 0

    def has_account(self, address: str) -> bool:
        return address in self.accounts or address in self._base.accounts
