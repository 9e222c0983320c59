"""The home-shard screen of a fan-out, and the node list a broadcast slices.

A message's ``shard_id`` is its payload's home shard: the network never
calls a recipient whose own ``shard_id`` is another shard, while the
wave's deliveries still fire (one event each, as before). A recipient
without a shard (``Node.shard_id`` is ``None``) takes every message.
"""

import pytest

from repro.consensus.miner import MinerIdentity
from repro.core.shard_formation import MAXSHARD_ID
from repro.faults.model import FaultModel
from repro.faults.plan import CrashEvent, FaultPlan
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import FullNode, Node
from repro.observe import Tracer
from tests.conftest import make_transfer


class Recorder(Node):
    def __init__(self, node_id, shard_id=None):
        self._id = node_id
        if shard_id is not None:
            self.shard_id = shard_id
        self.received = []

    @property
    def node_id(self):
        return self._id

    def receive(self, message):
        self.received.append(message)


#: n0..n5 in shards 1, 1, 2, 2, none, 3.
SHARDS = (1, 1, 2, 2, None, 3)


def make_net(faults=None, horizon=float("inf"), latency=None):
    scheduler = Scheduler(horizon)
    network = Network(
        scheduler, latency=latency or LatencyModel(0.05, 0.05), seed=3,
        faults=faults,
    )
    nodes = [Recorder(f"n{i}", shard) for i, shard in enumerate(SHARDS)]
    for node in nodes:
        network.register(node)
    return scheduler, network, nodes


def receivers(nodes):
    return [node.node_id for node in nodes if node.received]


class TestUnaddressedMessage:
    def test_repr_renders_a_missing_recipient(self):
        message = Message(MessageKind.BLOCK, "sender-public-key", None, "b", 2)
        assert repr(message) == "Message(block, sender-p->None, shard=2)"

    def test_repr_of_an_addressed_message(self):
        message = Message(MessageKind.TX, "user:alice", "n1-recipient")
        assert repr(message) == "Message(tx, user:ali->n1-recip, shard=None)"


class TestScreen:
    def test_node_without_shard_takes_shard_scoped_messages(self):
        assert Node.shard_id is None
        scheduler, network, nodes = make_net()
        network.broadcast(MessageKind.BLOCK, "n0", payload="b", shard_id=7)
        scheduler.run()
        assert receivers(nodes) == ["n4"]
        assert nodes[4].received[0].shard_id == 7

    def test_foreign_recipients_are_not_called(self):
        scheduler, network, nodes = make_net()
        assert network.broadcast(MessageKind.BLOCK, "n0", payload="b", shard_id=2) == 5
        scheduler.run()
        # Every delivery still fires; only the in-shard and shardless
        # recipients are called.
        assert scheduler.events_fired == 5
        assert receivers(nodes) == ["n2", "n3", "n4"]
        for node in nodes[2:5]:
            assert node.received == [Message(MessageKind.BLOCK, "n0", node.node_id, "b", 2)]

    def test_foreign_shard_tx_ignored(self):
        # A full node pools whatever it is handed: keeping a foreign
        # transaction out of its mempool is the screen's job.
        scheduler, network, nodes = make_net()
        node = FullNode(
            identity=MinerIdentity.create("screened-full-node"),
            shard_id=1,
            membership_verifier=lambda public, shard: True,
        )
        network.register(node)
        tx = make_transfer("0xualice", "0xubob")
        network.broadcast(MessageKind.TX, "user:0xualice", payload=tx, shard_id=MAXSHARD_ID)
        scheduler.run()
        assert len(node.mempool) == 0
        assert node.stats.txs_pooled == 0
        assert receivers(nodes) == ["n4"]

    def test_payload_without_home_reaches_everyone(self):
        scheduler, network, nodes = make_net()
        network.broadcast(MessageKind.BLOCK, "n0", payload="b")
        scheduler.run()
        assert receivers(nodes) == ["n1", "n2", "n3", "n4", "n5"]

    def test_send_and_multicast_are_screened(self):
        scheduler, network, nodes = make_net()
        assert network.send(Message(MessageKind.TX, "u", "n5", "t", shard_id=1))
        network.multicast(
            MessageKind.TX, "u", "t", recipients=["n0", "n2", "n5"], shard_id=3
        )
        scheduler.run()
        assert scheduler.events_fired == 4
        assert receivers(nodes) == ["n5"]
        assert [m.shard_id for m in nodes[5].received] == [3]

    def test_screen_keeps_cross_shard_accounting(self):
        scheduler, network, nodes = make_net()
        network.broadcast(MessageKind.STAT_REPORT, "n0", payload="s", shard_id=1)
        scheduler.run()
        assert network.cross_shard_messages == 5
        assert receivers(nodes) == ["n1", "n4"]

    def test_faulty_wave_screens_after_the_delivery_filter(self):
        # n2 (shard 2) crashes while the wave is in flight: the fault
        # layer still counts and notes its drop, although the screen
        # would have settled the delivery anyway.
        tracer = Tracer()
        plan = FaultPlan(crashes=(CrashEvent("n2", at=0.01, recover_at=5.0),))
        faults = FaultModel(plan, seed=1, tracer=tracer)
        scheduler, network, nodes = make_net(faults=faults)
        assert network.broadcast(MessageKind.TX, "u", payload="t", shard_id=1) == 6
        scheduler.run()
        assert faults.stats.crash_drops == 1
        drops = tracer.records_named("fault.delivery_drop")
        assert [r.attrs["recipient"] for r in drops] == ["n2"]
        assert scheduler.events_fired == 6
        assert receivers(nodes) == ["n0", "n1", "n4"]


class TestBroadcastRecipients:
    @pytest.mark.parametrize("sender", ["n0", "n3", "n5", "user:x"])
    def test_registration_order_without_the_sender(self, sender):
        order = []

        class Logger(Recorder):
            def receive(self, message):
                order.append(self.node_id)

        scheduler = Scheduler()
        network = Network(scheduler, latency=LatencyModel(0.0, 0.0), seed=0)
        for i in range(6):
            network.register(Logger(f"n{i}"))
        expected = [f"n{i}" for i in range(6) if f"n{i}" != sender]
        assert network.broadcast(MessageKind.TX, sender, payload="t") == len(expected)
        scheduler.run()
        # Zero latency: ties fire in sequence (registration) order.
        assert order == expected
        assert network.node_ids == tuple(f"n{i}" for i in range(6))

    def test_wholly_late_wave_counts_its_recipients(self):
        scheduler, network, nodes = make_net(horizon=1.0, latency=LatencyModel(2.0, 0.5))
        assert network.broadcast(MessageKind.BLOCK, "n3", payload="b") == 5
        assert network.broadcast(MessageKind.BLOCK, "user:x", payload="b") == 6
        assert scheduler.pending == 11
        scheduler.run()
        assert receivers(nodes) == []
