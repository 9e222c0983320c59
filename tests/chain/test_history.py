"""Tests for the full-history classifier, incl. differential testing vs CallGraph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.callgraph import CallGraph, SenderClass
from repro.workloads.generators import WorkloadBuilder
from tests.chain.history import TransactionHistory
from tests.conftest import CONTRACT_A, CONTRACT_B, make_call, make_transfer


class TestHistoryClassification:
    def test_unknown(self):
        assert TransactionHistory().classify("0xghost") is SenderClass.UNKNOWN

    def test_single_contract(self):
        history = TransactionHistory()
        history.append(make_call("0xuA", CONTRACT_A))
        assert history.classify("0xuA") is SenderClass.SINGLE_CONTRACT
        assert history.sole_contract_of("0xuA") == CONTRACT_A

    def test_multi_contract(self):
        history = TransactionHistory()
        history.extend(
            [
                make_call("0xuC", CONTRACT_A),
                make_call("0xuC", CONTRACT_B, nonce=1),
            ]
        )
        assert history.classify("0xuC") is SenderClass.MULTI_CONTRACT
        assert history.sole_contract_of("0xuC") is None

    def test_direct_sender(self):
        history = TransactionHistory()
        history.append(make_transfer("0xuX", "0xuY"))
        assert history.classify("0xuX") is SenderClass.DIRECT_SENDER
        assert history.classify("0xuY") is SenderClass.DIRECT_SENDER

    def test_mixed_sender_is_direct(self):
        history = TransactionHistory()
        history.append(make_call("0xuF", CONTRACT_A))
        history.append(make_transfer("0xuF", "0xuH", nonce=1))
        assert history.classify("0xuF") is SenderClass.DIRECT_SENDER


class TestScanCostAccounting:
    def test_each_query_scans_everything(self):
        history = TransactionHistory()
        history.extend([make_call(f"0xu{i}", CONTRACT_A) for i in range(50)])
        history.classify("0xu0")
        history.classify("0xu1")
        assert history.scans_performed == 2
        assert history.mean_scan_cost() == 50.0

    def test_empty_history_costs_nothing(self):
        assert TransactionHistory().mean_scan_cost() == 0.0

    def test_cost_grows_with_history(self):
        """The Sec. III-C motivation for the call graph, measured."""
        short, long = TransactionHistory(), TransactionHistory()
        short.extend([make_call(f"0xus{i}", CONTRACT_A) for i in range(10)])
        long.extend([make_call(f"0xul{i}", CONTRACT_A) for i in range(1_000)])
        short.classify("0xus0")
        long.classify("0xul0")
        assert long.mean_scan_cost() == 100 * short.mean_scan_cost()


@st.composite
def random_traffic(draw):
    builder = WorkloadBuilder()
    contracts = [CONTRACT_A, CONTRACT_B]
    txs = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        sender = f"0xu{draw(st.integers(0, 5))}"
        if draw(st.booleans()):
            txs.append(
                builder.contract_call(sender, draw(st.sampled_from(contracts)), fee=1)
            )
        else:
            txs.append(builder.direct_transfer(sender, f"0xur{i}", fee=1))
    return txs


class TestDifferentialAgainstCallGraph:
    """The scan oracle and the call-graph index must always agree —
    the paper's 'pluggable' classification interfaces are interchangeable."""

    @given(random_traffic())
    @settings(max_examples=50, deadline=None)
    def test_classifications_agree(self, txs):
        history = TransactionHistory()
        graph = CallGraph()
        history.extend(txs)
        graph.observe_many(txs)
        senders = {tx.sender for tx in txs}
        for sender in senders:
            assert history.classify(sender) == graph.classify(sender), sender

    @given(random_traffic())
    @settings(max_examples=50, deadline=None)
    def test_sole_contract_agrees(self, txs):
        history = TransactionHistory()
        graph = CallGraph()
        history.extend(txs)
        graph.observe_many(txs)
        for sender in {tx.sender for tx in txs}:
            assert history.sole_contract_of(sender) == graph.sole_contract_of(sender)
