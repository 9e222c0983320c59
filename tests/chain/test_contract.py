"""Tests for repro.chain.contract."""

import pytest

from repro.chain.contract import SmartContract, TransferCondition
from repro.chain.state import WorldState
from tests.conftest import CONTRACT_A


class TestTransferCondition:
    def test_always_holds(self):
        assert TransferCondition(kind="always").holds(WorldState())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransferCondition(kind="phase_of_moon")

    def test_subject_required_for_balance_conditions(self):
        with pytest.raises(ValueError):
            TransferCondition(kind="balance_below", threshold=5)

    def test_balance_below(self):
        state = WorldState()
        state.create_account("0xubob", balance=0)
        condition = TransferCondition(
            kind="balance_below", subject="0xubob", threshold=1
        )
        assert condition.holds(state)
        state.credit("0xubob", 2)
        assert not condition.holds(state)

    def test_balance_at_least(self):
        state = WorldState()
        state.create_account("0xubob", balance=10)
        condition = TransferCondition(
            kind="balance_at_least", subject="0xubob", threshold=10
        )
        assert condition.holds(state)
        state.accounts["0xubob"] = (9, 0)
        assert not condition.holds(state)

    def test_unknown_subject_treated_as_zero_balance(self):
        condition = TransferCondition(
            kind="balance_below", subject="0xghost", threshold=1
        )
        assert condition.holds(WorldState())


class TestSmartContract:
    def test_unconditional_factory(self):
        contract = SmartContract.unconditional(CONTRACT_A, "0xudest")
        assert contract.can_execute(WorldState())
        assert contract.beneficiary == "0xudest"

    def test_paper_example_scenario(self):
        # "transfer 2 ETH to user B if B's balance is below 1 ETH"
        state = WorldState()
        state.create_account("0xubob", balance=0)
        contract = SmartContract(
            address=CONTRACT_A,
            beneficiary="0xubob",
            condition=TransferCondition(
                kind="balance_below", subject="0xubob", threshold=1
            ),
        )
        assert contract.can_execute(state)
        state.credit("0xubob", 5)
        assert not contract.can_execute(state)

    def test_invocation_counter(self):
        contract = SmartContract.unconditional(CONTRACT_A, "0xudest")
        contract.record_invocation()
        contract.record_invocation()
        assert contract.invocation_count == 2
