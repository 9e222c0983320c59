"""Tests for repro.chain.callgraph — the Fig. 1 sender patterns."""

from repro.chain.callgraph import CallGraph, SenderClass
from tests.conftest import CONTRACT_A, CONTRACT_B, make_call, make_transfer


class TestClassification:
    def test_unknown_sender(self):
        assert CallGraph().classify("0xghost") is SenderClass.UNKNOWN

    def test_fig1a_single_contract(self):
        """User A only sends through contract 1 — shardable."""
        graph = CallGraph()
        graph.observe(make_call("0xuA", CONTRACT_A))
        assert graph.classify("0xuA") is SenderClass.SINGLE_CONTRACT

    def test_fig1b_multi_contract(self):
        """User C invokes contracts 1 and 2 — MaxShard."""
        graph = CallGraph()
        graph.observe(make_call("0xuC", CONTRACT_A))
        graph.observe(make_call("0xuC", CONTRACT_B, nonce=1))
        assert graph.classify("0xuC") is SenderClass.MULTI_CONTRACT

    def test_fig1c_direct_sender(self):
        """User F invokes contract 1 AND pays user H directly — MaxShard."""
        graph = CallGraph()
        graph.observe(make_call("0xuF", CONTRACT_A))
        graph.observe(make_transfer("0xuF", "0xuH", nonce=1))
        assert graph.classify("0xuF") is SenderClass.DIRECT_SENDER

    def test_pure_direct_sender(self):
        graph = CallGraph()
        graph.observe(make_transfer("0xuX", "0xuY"))
        assert graph.classify("0xuX") is SenderClass.DIRECT_SENDER

    def test_repeated_same_contract_stays_single(self):
        graph = CallGraph()
        for nonce in range(5):
            graph.observe(make_call("0xuA", CONTRACT_A, nonce=nonce))
        assert graph.classify("0xuA") is SenderClass.SINGLE_CONTRACT


class TestQueries:
    def test_sole_contract_of(self):
        graph = CallGraph()
        graph.observe(make_call("0xuA", CONTRACT_A))
        assert graph.sole_contract_of("0xuA") == CONTRACT_A

    def test_sole_contract_of_multi_is_none(self):
        graph = CallGraph()
        graph.observe(make_call("0xuC", CONTRACT_A))
        graph.observe(make_call("0xuC", CONTRACT_B, nonce=1))
        assert graph.sole_contract_of("0xuC") is None

    def test_recipient_of_direct_transfer_not_misclassified(self):
        """The transfer's recipient has not *sent* anything; receiving a
        direct payment marks her as a direct participant (she now shares
        state with the sender), matching the MaxShard routing rule."""
        graph = CallGraph()
        graph.observe(make_transfer("0xuX", "0xuY"))
        assert graph.classify("0xuY") is SenderClass.DIRECT_SENDER

