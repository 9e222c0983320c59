"""Tests for repro.net.network and repro.net.messages."""

import math

import pytest

from repro.errors import NetworkError
from repro.faults.model import FaultModel
from repro.faults.plan import CrashEvent, FaultPlan
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import Node


class Recorder(Node):
    def __init__(self, node_id):
        self._id = node_id
        self.received = []

    @property
    def node_id(self):
        return self._id

    def receive(self, message):
        self.received.append(message)


def make_net(n=3, latency=None, seed=0):
    scheduler = Scheduler()
    network = Network(scheduler, latency=latency or LatencyModel(), seed=seed)
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        network.register(node)
    return scheduler, network, nodes


class TestMessageKinds:
    def test_gossip_is_not_cross_shard(self):
        assert not MessageKind.TX.is_cross_shard
        assert not MessageKind.BLOCK.is_cross_shard

    def test_consensus_kinds_are_cross_shard(self):
        assert MessageKind.CROSS_SHARD_PREPARE.is_cross_shard
        assert MessageKind.STAT_REPORT.is_cross_shard
        assert MessageKind.LEADER_BROADCAST.is_cross_shard


class TestDelivery:
    def test_send_delivers_after_latency(self):
        scheduler, network, nodes = make_net()
        network.send(Message(MessageKind.TX, "n0", "n1", payload="hi"))
        assert nodes[1].received == []  # not yet delivered
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert scheduler.now > 0

    def test_zero_latency_model(self):
        scheduler, network, nodes = make_net(
            latency=LatencyModel(base_seconds=0.0, jitter_seconds=0.0)
        )
        network.send(Message(MessageKind.TX, "n0", "n1"))
        scheduler.run()
        assert scheduler.now == 0.0
        assert len(nodes[1].received) == 1

    def test_broadcast_excludes_sender(self):
        scheduler, network, nodes = make_net(4)
        fanout = network.broadcast(MessageKind.BLOCK, "n0", payload="b")
        scheduler.run()
        assert fanout == 3
        assert nodes[0].received == []
        assert all(len(node.received) == 1 for node in nodes[1:])

    def test_multicast(self):
        scheduler, network, nodes = make_net(4)
        network.multicast(MessageKind.TX, "n0", "p", recipients=["n1", "n3"])
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []
        assert len(nodes[3].received) == 1

    def test_multicast_fanout_excludes_skipped_sender(self):
        __, network, __nodes = make_net(4)
        # The sender appears in the recipient list but is skipped, so the
        # reported fan-out must count only the messages actually sent.
        sent = network.multicast(
            MessageKind.TX, "n0", "p", recipients=["n0", "n1", "n3"]
        )
        assert sent == 2

    def test_multicast_fanout_counts_all_when_sender_absent(self):
        __, network, __nodes = make_net(4)
        sent = network.multicast(MessageKind.TX, "n0", "p", recipients=["n1", "n2"])
        assert sent == 2

    def test_unknown_recipient(self):
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError):
            network.send(Message(MessageKind.TX, "n0", "ghost"))

    def test_multicast_unknown_recipient(self):
        # The fan-out looks every recipient up before sending to any.
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError):
            network.multicast(MessageKind.TX, "n0", "p", recipients=["ghost"])

    def test_multicast_unknown_recipient_names_sender_and_kind(self):
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError, match=r"ghost.*BLOCK.*n0"):
            network.multicast(
                MessageKind.BLOCK, "n0", "p", recipients=["n1", "ghost"]
            )

    def test_faulty_multicast_unknown_recipient_names_sender_and_kind(self):
        # A fault model must not change the diagnostic.
        from repro.faults.model import FaultModel
        from repro.faults.plan import FaultPlan

        scheduler = Scheduler()
        network = Network(
            scheduler,
            latency=LatencyModel(),
            seed=0,
            faults=FaultModel(FaultPlan.lossy(0.5), seed=1),
        )
        for node in [Recorder("n0"), Recorder("n1")]:
            network.register(node)
        with pytest.raises(NetworkError, match=r"ghost.*TX.*n0"):
            network.multicast(MessageKind.TX, "n0", "p", recipients=["n1", "ghost"])

    def test_duplicate_registration(self):
        __, network, nodes = make_net()
        with pytest.raises(NetworkError):
            network.register(nodes[0])


class TestDeliveryWaves:
    """Wave-scheduled fan-outs deliver exactly what one event per
    recipient would: one latency draw per recipient in recipient order,
    sequence numbers allocated in that order, and arrivals in (time,
    sequence) order."""

    def _run(self, n=6, seed=3):
        scheduler = Scheduler()
        network = Network(
            scheduler,
            latency=LatencyModel(base_seconds=0.05, jitter_seconds=0.1),
            seed=seed,
        )
        nodes = [Recorder(f"n{i}") for i in range(n)]
        for node in nodes:
            network.register(node)
        arrivals = []
        for node in nodes:
            node.receive = (
                lambda message, node=node: arrivals.append(
                    (scheduler.now, node.node_id, message.kind, message.payload)
                )
            )
        network.broadcast(MessageKind.BLOCK, "n0", payload="b1")
        network.multicast(
            MessageKind.TX, "n1", "t1", recipients=["n0", "n2", "n4"]
        )
        network.broadcast(MessageKind.BLOCK, "n2", payload="b2")
        scheduler.run()
        return arrivals, scheduler.events_fired

    def test_wave_matches_expected_delivery_sequence(self):
        import random

        # The same three fan-outs, derived by hand from the seeded
        # latency stream: one draw per recipient, in recipient order.
        latency = LatencyModel(base_seconds=0.05, jitter_seconds=0.1)
        rng = random.Random(3)
        fanouts = [
            (MessageKind.BLOCK, "b1", ["n1", "n2", "n3", "n4", "n5"]),
            (MessageKind.TX, "t1", ["n0", "n2", "n4"]),
            (MessageKind.BLOCK, "b2", ["n0", "n1", "n3", "n4", "n5"]),
        ]
        pending = []
        for kind, payload, recipients in fanouts:
            delays = latency.sample_many(rng, len(recipients))
            for recipient, delay in zip(recipients, delays):
                pending.append((delay, len(pending), recipient, kind, payload))
        expected = [
            (time, recipient, kind, payload)
            for time, __, recipient, kind, payload in sorted(pending)
        ]

        arrivals, fired = self._run()
        assert arrivals == expected
        assert len(arrivals) == fired == len(expected) == 13

    def test_single_and_empty_fanouts(self):
        scheduler, network, nodes = make_net(3, seed=5)
        assert network.multicast(
            MessageKind.TX, "n0", "t", recipients=["n0"]
        ) == 0
        assert scheduler.pending == 0
        assert network.multicast(
            MessageKind.TX, "n0", "t", recipients=["n2"]
        ) == 1
        assert scheduler.pending == scheduler.peak_pending == 1
        scheduler.run()
        assert [m.payload for m in nodes[2].received] == ["t"]
        assert nodes[1].received == []

    def test_wave_message_fields(self):
        scheduler, network, nodes = make_net(4)
        network.broadcast(MessageKind.BLOCK, "n0", payload="b", shard_id=2)
        scheduler.run()
        for node in nodes[1:]:
            (message,) = node.received
            assert message.kind is MessageKind.BLOCK
            assert message.sender == "n0"
            assert message.recipient == node.node_id
            assert message.payload == "b"
            assert message.shard_id == 2

    def test_broadcast_uses_single_heap_entry(self):
        scheduler, network, __nodes = make_net(8)
        network.broadcast(MessageKind.BLOCK, "n0", payload="b")
        assert scheduler.pending == 7
        assert scheduler.peak_pending == 1


class TestAccounting:
    def test_gossip_not_counted_cross_shard(self):
        scheduler, network, nodes = make_net()
        network.send(Message(MessageKind.TX, "n0", "n1", shard_id=1))
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert network.cross_shard_messages == 0

    def test_cross_shard_counted_per_shard(self):
        scheduler, network, __ = make_net()
        network.send(
            Message(MessageKind.CROSS_SHARD_PREPARE, "n0", "n1", shard_id=2)
        )
        network.send(
            Message(MessageKind.CROSS_SHARD_VOTE, "n1", "n0", shard_id=2)
        )
        network.broadcast(MessageKind.STAT_REPORT, "n2", payload="s")
        scheduler.run()
        assert network.cross_shard_messages == 4


class TestFusedDelivery:
    """One call per delivery: the wave's closure builds the message,
    applies the delivery-time fault check and the cross-shard count,
    then hands the message to the recipient."""

    def _crashing_net(self):
        # n3 goes down after the t=0 sends leave and before any lands.
        plan = FaultPlan(crashes=(CrashEvent("n3", at=0.01, recover_at=5.0),))
        scheduler = Scheduler()
        faults = FaultModel(plan, seed=1)
        network = Network(scheduler, LatencyModel(0.05, 0.1), seed=0, faults=faults)
        nodes = [Recorder(f"n{i}") for i in range(5)]
        for node in nodes:
            network.register(node)
        return scheduler, network, faults, nodes

    def test_cross_shard_counts_each_landed_leader_broadcast_once(self):
        scheduler, network, __, nodes = self._crashing_net()
        assert network.broadcast(MessageKind.LEADER_BROADCAST, "n0", "p") == 4
        network.broadcast(MessageKind.BLOCK, "n1", "b")
        network.multicast(MessageKind.TX, "n2", "t", recipients=["n0", "n4"])
        scheduler.run()
        landed = [
            message
            for node in nodes
            for message in node.received
            if message.kind is MessageKind.LEADER_BROADCAST
        ]
        assert len(landed) == 3  # n3 was down when its copy arrived
        assert network.cross_shard_messages == 3

    def test_recipient_crashed_in_flight_is_dropped_and_counted(self):
        scheduler, network, faults, nodes = self._crashing_net()
        assert network.send(Message(MessageKind.TX, "n0", "n3", payload="t"))
        scheduler.run()
        assert nodes[3].received == []
        assert faults.stats.crash_drops == 1

    def test_message_fields_cannot_be_assigned(self):
        message = Message(MessageKind.TX, "n0", "n1", payload="t")
        with pytest.raises(AttributeError):
            message.payload = "forged"
        assert message.payload == "t"


class TestLatencyModel:
    def test_sample_within_bounds(self):
        import random

        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.05)
        rng = random.Random(1)
        for __ in range(100):
            delay = model.sample(rng)
            assert 0.05 <= delay <= 0.10

    def test_negative_base_rejected_at_construction(self):
        # Used to surface much later as a "cannot schedule in the past"
        # SimulationError deep inside the event loop.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LatencyModel(base_seconds=-0.01)

    def test_negative_jitter_rejected_at_construction(self):
        # Used to be silently ignored by sample().
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LatencyModel(jitter_seconds=-0.5)

    @pytest.mark.parametrize("field", ["base_seconds", "jitter_seconds"])
    def test_nan_rejected_naming_field(self, field):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=field):
            LatencyModel(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["base_seconds", "jitter_seconds"])
    def test_infinite_rejected_naming_field(self, field):
        # An infinite delay never fires under a finite horizon, fires at
        # t = inf under an infinite one, and infinite jitter times a zero
        # uniform is NaN.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=field):
            LatencyModel(**{field: math.inf})

    def test_sample_many_count_and_bounds(self):
        import random

        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.05)
        delays = model.sample_many(random.Random(1), 50)
        assert len(delays) == 50
        assert all(0.05 <= d <= 0.10 for d in delays)
