"""Tests for repro.chain.state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.contract import SmartContract, TransferCondition
from repro.chain.state import BlockUndo, WorldState
from repro.consensus.miner import MinerIdentity
from repro.errors import (
    InsufficientBalanceError,
    NonceError,
    UnknownAccountError,
    UnknownContractError,
    ValidationError,
)
from repro.net.node import FullNode, ImageTable
from tests.conftest import CONTRACT_A, make_call, make_transfer


class TestAccounts:
    def test_create_account(self, world):
        assert world.balance_of("0xualice") == 1_000

    def test_create_is_idempotent(self, world):
        world.create_account("0xualice", balance=5)
        assert world.balance_of("0xualice") == 1_000  # existing account untouched

    def test_unknown_account_raises(self, world):
        with pytest.raises(UnknownAccountError):
            world.account("0xghost")

    def test_unknown_contract_raises(self, world):
        with pytest.raises(UnknownContractError):
            world.contract("0xghost")

    def test_balance_of_unknown_is_zero(self, world):
        assert world.balance_of("0xghost") == 0


class TestDirectTransfer:
    def test_moves_value(self, world):
        world.apply_transaction(make_transfer("0xualice", "0xubob", amount=10, fee=2))
        assert world.balance_of("0xualice") == 988
        assert world.balance_of("0xubob") == 1_010

    def test_bumps_nonce(self, world):
        world.apply_transaction(make_transfer("0xualice", "0xubob"))
        assert world.account("0xualice").nonce == 1

    def test_fee_paid_to_miner(self, world):
        world.apply_transaction(
            make_transfer("0xualice", "0xubob", fee=7), miner="pk-m"
        )
        assert world.balance_of("pk-m") == 7

    def test_creates_recipient_account(self, world):
        world.apply_transaction(make_transfer("0xualice", "0xunew", amount=3))
        assert world.balance_of("0xunew") == 3

    def test_supply_conserved_with_miner(self, world):
        before = world.total_supply()
        world.apply_transaction(
            make_transfer("0xualice", "0xubob", amount=10, fee=5), miner="pk-m"
        )
        assert world.total_supply() == before


class TestContractCall:
    def test_routes_to_beneficiary(self, world):
        world.apply_transaction(make_call("0xualice", CONTRACT_A, amount=10))
        assert world.balance_of("0xudest-a") == 10

    def test_records_invocation(self, world):
        world.apply_transaction(make_call("0xualice", CONTRACT_A))
        assert world.contract(CONTRACT_A).invocation_count == 1

    def test_condition_blocks_execution(self, world):
        conditional = SmartContract(
            address="0xc" + "f" * 39,
            beneficiary="0xubob",
            condition=TransferCondition(
                kind="balance_below", subject="0xubob", threshold=1
            ),
        )
        world.deploy_contract(conditional)
        tx = make_call("0xualice", conditional.address)
        with pytest.raises(ValidationError):
            world.apply_transaction(tx)


class TestValidationFailures:
    def test_wrong_nonce_rejected(self, world):
        with pytest.raises(NonceError):
            world.apply_transaction(make_transfer("0xualice", "0xubob", nonce=5))

    def test_overdraft_rejected(self, world):
        with pytest.raises(InsufficientBalanceError):
            world.apply_transaction(
                make_transfer("0xualice", "0xubob", amount=10_000)
            )

    def test_fee_counts_toward_cost(self, world):
        world.accounts["0xualice"] = (10, 0)
        with pytest.raises(InsufficientBalanceError):
            world.apply_transaction(
                make_transfer("0xualice", "0xubob", amount=8, fee=3)
            )

    def test_failed_tx_leaves_state_untouched(self, world):
        try:
            world.apply_transaction(
                make_transfer("0xualice", "0xubob", amount=10_000)
            )
        except InsufficientBalanceError:
            pass
        assert world.balance_of("0xualice") == 1_000
        assert world.account("0xualice").nonce == 0

    def test_can_apply_mirrors_apply(self, world):
        good = make_transfer("0xualice", "0xubob")
        bad = make_transfer("0xualice", "0xubob", nonce=9)
        assert world.can_apply(good)
        assert not world.can_apply(bad)


class TestBlockBody:
    def test_sequential_nonces_apply(self, world):
        txs = (
            make_transfer("0xualice", "0xubob", nonce=0),
            make_transfer("0xualice", "0xubob", nonce=1),
        )
        rejected = world.apply_block_body(txs, miner="pk-m")
        assert rejected == []
        assert world.account("0xualice").nonce == 2

    def test_double_spend_rejected_within_body(self, world):
        tx = make_transfer("0xualice", "0xubob", nonce=0)
        rejected = world.apply_block_body((tx, tx), miner="pk-m")
        assert len(rejected) == 1


class TestSnapshot:
    def test_snapshot_is_deep(self, world):
        snap = world.snapshot()
        snap.apply_transaction(make_transfer("0xualice", "0xubob", amount=100))
        assert world.balance_of("0xualice") == 1_000
        assert snap.balance_of("0xualice") < 1_000

    def test_snapshot_copies_contracts(self, world):
        snap = world.snapshot()
        snap.contract(CONTRACT_A).record_invocation()
        assert world.contract(CONTRACT_A).invocation_count == 0


class TestBlockUndoJournal:
    """Journaled apply + revert must be an exact round trip."""

    def test_apply_revert_round_trip(self, world):
        from repro.chain.state import BlockUndo

        before = world.fingerprint()
        undo = BlockUndo()
        body = (
            make_transfer("0xualice", "0xubob", amount=10, fee=2),
            make_call("0xubob", fee=5),
            make_transfer("0xualice", "0xunew", amount=3, fee=1, nonce=1),
        )
        rejected = world.apply_block_body(body, miner="pk-m", journal=undo)
        assert rejected == []
        assert world.fingerprint() != before
        world.revert_block_body(undo)
        assert world.fingerprint() == before

    def test_revert_deletes_created_accounts(self, world):
        from repro.chain.state import BlockUndo

        undo = BlockUndo()
        world.apply_block_body(
            (make_transfer("0xualice", "0xufresh", amount=3),),
            miner="pk-new-miner",
            journal=undo,
        )
        assert world.has_account("0xufresh")
        assert world.has_account("pk-new-miner")
        world.revert_block_body(undo)
        assert not world.has_account("0xufresh")
        assert not world.has_account("pk-new-miner")

    def test_revert_restores_contract_invocations(self, world):
        from repro.chain.state import BlockUndo

        undo = BlockUndo()
        world.apply_block_body(
            (make_call("0xualice", fee=2),), miner="pk-m", journal=undo
        )
        assert world.contract(CONTRACT_A).invocation_count == 1
        world.revert_block_body(undo)
        assert world.contract(CONTRACT_A).invocation_count == 0

    def test_journal_snapshots_first_touch_only(self, world):
        from repro.chain.state import BlockUndo

        undo = BlockUndo()
        body = (
            make_transfer("0xualice", "0xubob", amount=10, fee=1),
            make_transfer("0xualice", "0xubob", amount=10, fee=1, nonce=1),
        )
        before = world.fingerprint()
        world.apply_block_body(body, miner="pk-m", journal=undo)
        # One snapshot per touched address, taken before the first write.
        assert undo.accounts["0xualice"] == (1_000, 0)
        assert undo.accounts["0xubob"] == (1_000, 0)
        world.revert_block_body(undo)
        assert world.fingerprint() == before

    def test_failed_transaction_leaves_no_journal_entry(self, world):
        from repro.chain.state import BlockUndo

        undo = BlockUndo()
        bad = make_transfer("0xualice", "0xubob", amount=10_000)
        rejected = world.apply_block_body((bad,), miner="pk-m", journal=undo)
        assert rejected == [bad]
        assert undo.accounts == {}
        assert undo.contracts == {}


class TestFingerprint:
    def test_stable_across_insertion_order(self):
        a, b = WorldState(), WorldState()
        a.create_account("0xux", balance=5)
        a.create_account("0xuy", balance=7)
        b.create_account("0xuy", balance=7)
        b.create_account("0xux", balance=5)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_balances(self, world):
        before = world.fingerprint()
        world.credit("0xualice", 1)
        assert world.fingerprint() != before


class TestUnknownReferencesAreInvalid:
    """An unknown sender or an undeployed contract is a rejected tx,
    not an error that escapes block application."""

    def test_unknown_sender_cannot_apply(self, world):
        assert not world.can_apply(make_transfer("0xughost", "0xubob"))

    def test_undeployed_contract_cannot_apply(self, world):
        assert not world.can_apply(make_call("0xualice", contract="0xcnowhere"))

    def test_unknown_sender_is_a_validation_error(self, world):
        with pytest.raises(ValidationError, match="unknown sender"):
            world.apply_transaction(make_transfer("0xughost", "0xubob"))

    def test_block_rejects_ghost_and_applies_the_rest(self, world):
        from repro.chain.state import BlockUndo

        ghost = make_transfer("0xughost", "0xubob", amount=10)
        missing = make_call("0xubob", contract="0xcnowhere")
        ok = make_transfer("0xualice", "0xubob", amount=10, fee=2)
        undo = BlockUndo()
        rejected = world.apply_block_body(
            (ghost, missing, ok), miner="pk-m", journal=undo
        )
        assert rejected == [ghost, missing]
        assert world.balance_of("0xualice") == 988
        assert world.balance_of("0xubob") == 1_010
        image = world.record_image((ghost, missing, ok), undo)
        # The ghost sender is read as absent; the undeployed contract too.
        assert "0xughost" in image.absent
        assert "0xughost" not in image.reads
        assert image.contract_reads["0xcnowhere"] is None
        assert "0xughost" not in image.writes


class TestBlockImage:
    """Record on one state, write on an equal one: same end state."""

    BODY = (
        make_transfer("0xualice", "0xubob", amount=10, fee=2),
        make_call("0xubob", fee=5),
        make_transfer("0xualice", "0xunew", amount=3, fee=1, nonce=1),
    )

    def _recorded(self, world):
        from repro.chain.state import BlockUndo

        replica = world.snapshot()
        undo = BlockUndo()
        world.apply_block_body(self.BODY, miner="pk-m", journal=undo)
        return world.record_image(self.BODY, undo), replica

    def test_write_matches_full_apply(self, world):
        image, replica = self._recorded(world)
        assert replica.write_image(image)
        assert replica.fingerprint() == world.fingerprint()
        # The shared undo is the replica's exact inverse too.
        replica.revert_block_body(image.undo)
        world.revert_block_body(image.undo)
        assert replica.fingerprint() == world.fingerprint()

    def test_image_holds_read_and_write_sets(self, world):
        image, __ = self._recorded(world)
        assert image.reads["0xualice"] == (1_000, 0)
        assert "0xunew" in image.absent  # created by the body
        assert image.writes["0xualice"] == (984, 2)
        assert image.writes["0xunew"] == (3, 0)
        assert image.contract_reads[CONTRACT_A] == (
            0,
            "0xudest-a",
            TransferCondition(kind="always"),
        )
        assert image.contract_writes == {CONTRACT_A: 1}

    @pytest.mark.parametrize("address", ["0xualice", "0xubob"])
    def test_differing_read_refuses_write(self, world, address):
        image, replica = self._recorded(world)
        replica.credit(address, 1)
        before = replica.fingerprint()
        assert not replica.write_image(image)
        assert replica.fingerprint() == before  # nothing written

    def test_present_where_image_read_absent_refuses_write(self, world):
        image, replica = self._recorded(world)
        replica.create_account("0xunew")
        assert not replica.write_image(image)

    def test_differing_contract_refuses_write(self, world):
        image, replica = self._recorded(world)
        replica.contract(CONTRACT_A).record_invocation()
        assert not replica.write_image(image)

    def test_rejected_sender_is_a_read(self, world):
        from repro.chain.state import BlockUndo

        broke = make_transfer("0xubob", "0xualice", amount=5_000)
        undo = BlockUndo()
        assert world.apply_block_body((broke,), "pk-m", journal=undo) == [broke]
        image = world.record_image((broke,), undo)
        assert image.reads == {"0xubob": (1_000, 0)}
        assert image.writes == {}

    def test_condition_subject_is_a_read(self, world):
        from repro.chain.state import BlockUndo

        guarded = "0xc" + "d" * 39
        world.deploy_contract(
            SmartContract(
                address=guarded,
                beneficiary="0xudest-d",
                condition=TransferCondition(
                    kind="balance_below", subject="0xuwatched", threshold=10
                ),
            )
        )
        world.create_account("0xuwatched", balance=3)
        replica = world.snapshot()
        call = make_call("0xualice", contract=guarded, fee=1)
        undo = BlockUndo()
        assert world.apply_block_body((call,), "pk-m", journal=undo) == []
        image = world.record_image((call,), undo)
        assert image.reads["0xuwatched"] == (3, 0)
        assert "0xuwatched" not in image.writes
        # The condition would fail on a replica where the subject is
        # rich: the read set must send it to the full apply.
        replica.credit("0xuwatched", 100)
        assert not replica.write_image(image)


# ----------------------------------------------------------------------
# Properties: forge images, image writes and reverts against full applies
# ----------------------------------------------------------------------
_FORGER = MinerIdentity.create("property-forger")
_USERS = ["0xu0", "0xu1", "0xu2", "0xu3", _FORGER.public]
_CONTRACTS = ["0xc" + c * 39 for c in "123"]
_UNDEPLOYED = "0xc" + "9" * 39
_ACCOUNT = st.none() | st.tuples(
    st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=2)
)


@st.composite
def _worlds(draw):
    """A table of present and absent accounts and three contracts, the
    conditional ones watching an account a block may write."""
    state = WorldState()
    for address in _USERS:
        value = draw(_ACCOUNT)
        if value is not None:
            state.accounts[address] = value
    for address in _CONTRACTS:
        kind = draw(st.sampled_from(["always", "balance_below", "balance_at_least"]))
        subject = None if kind == "always" else draw(st.sampled_from(_USERS))
        threshold = draw(st.integers(min_value=0, max_value=30))
        state.deploy_contract(
            SmartContract(
                address,
                draw(st.sampled_from(_USERS)),
                TransferCondition(kind, subject, threshold),
                draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return state


@st.composite
def _bodies(draw):
    """Transactions with nonce gaps, overdrafts, unknown senders and
    undeployed contracts, the forger among the senders."""
    body = []
    for __ in range(draw(st.integers(min_value=0, max_value=8))):
        sender = draw(st.sampled_from(_USERS))
        amount = draw(st.integers(min_value=0, max_value=20))
        fee = draw(st.integers(min_value=0, max_value=5))
        nonce = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            contract = draw(st.sampled_from(_CONTRACTS + [_UNDEPLOYED]))
            body.append(make_call(sender, contract, fee, amount, nonce))
        else:
            recipient = draw(st.sampled_from(_USERS + ["0xunew"]))
            body.append(make_transfer(sender, recipient, fee, amount, nonce))
    return body


def _perturbed(state, draw):
    """A copy of ``state`` with some accounts changed, added or removed."""
    copy = state.snapshot()
    for address in draw(st.lists(st.sampled_from(_USERS + ["0xunew"]), max_size=3)):
        value = draw(_ACCOUNT)
        if value is None:
            copy.accounts.pop(address, None)
        else:
            copy.accounts[address] = value
    return copy


def _image_fields(image):
    return (
        image.reads,
        image.absent,
        image.contract_reads,
        image.writes,
        image.contract_writes,
        image.undo.accounts,
        image.undo.contracts,
    )


def _counts(state):
    return {a: c.invocation_count for a, c in state.contracts.items()}


def _full_image(state, transactions, miner):
    """Apply ``transactions`` to ``state`` in full; return the image."""
    undo = BlockUndo()
    state.apply_block_body(transactions, miner=miner, journal=undo)
    return state.record_image(transactions, undo)


class TestImageProperties:
    @given(_worlds(), _bodies())
    @settings(max_examples=150, deadline=None)
    def test_forge_image_equals_full_apply_image(self, world, body):
        node = FullNode(
            identity=_FORGER,
            shard_id=1,
            membership_verifier=lambda public, shard: True,
            state=world.snapshot(),
        )
        node.images = ImageTable(1)
        node.pool(body)
        block = node.forge_block(timestamp=1.0, capacity=len(body) + 1)
        forged = node.images.get(block.block_hash)
        assert node.state.accounts == world.accounts  # the forge only speculates
        full = world.snapshot()
        image = _full_image(full, block.transactions, _FORGER.public)
        assert _image_fields(forged) == _image_fields(image)
        node.adopt_block(block)
        assert node.state.accounts == full.accounts
        assert _counts(node.state) == _counts(full)

    @given(_worlds(), _bodies(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_replica_with_matching_reads_ends_as_a_full_apply(self, world, body, data):
        transactions = tuple(body)
        image = _full_image(world.snapshot(), transactions, _FORGER.public)
        replica = _perturbed(world, data.draw)
        expected = replica.snapshot()
        expected.apply_block_body(transactions, miner=_FORGER.public)
        before = dict(replica.accounts)
        matches = all(before.get(a) == v for a, v in image.reads.items()) and all(
            a not in before for a in image.absent
        )
        assert replica.write_image(image) is matches
        if matches:
            assert replica.accounts == expected.accounts
            assert _counts(replica) == _counts(expected)
            replica.revert_block_body(image.undo)
        assert replica.accounts == before

    @given(_worlds(), _bodies())
    @settings(max_examples=150, deadline=None)
    def test_apply_then_revert_restores_the_dict(self, world, body):
        state = world.snapshot()
        undo = BlockUndo()
        state.apply_block_body(tuple(body), miner=_FORGER.public, journal=undo)
        state.revert_block_body(undo)
        assert state.accounts == world.accounts
        assert _counts(state) == _counts(world)
