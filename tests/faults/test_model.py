"""Tests for repro.faults.model and its wiring into the network."""

from repro.faults.model import FaultModel
from repro.faults.plan import CrashEvent, FaultPlan, MessageFaults, Partition
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


def make_net(plan=None, n=3, seed=0, fault_seed=7):
    scheduler = Scheduler()
    faults = FaultModel(plan, seed=fault_seed) if plan is not None else None
    network = Network(
        scheduler,
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.0),
        seed=seed,
        faults=faults,
    )
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        network.register(node)
    return scheduler, network, nodes


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan.lossy(0.5)
        decisions = []
        for _ in range(2):
            model = FaultModel(plan, seed=42)
            decisions.append(
                [
                    model.filter_send(
                        Message(MessageKind.TX, "a", "b"), time=0.0
                    ).dropped
                    for __ in range(50)
                ]
            )
        assert decisions[0] == decisions[1]
        assert any(decisions[0])
        assert not all(decisions[0])

    def test_noop_plan_consumes_no_randomness(self):
        model = FaultModel(FaultPlan.none(), seed=1)
        state_before = model._rng.getstate()
        for _ in range(10):
            decision = model.filter_send(Message(MessageKind.TX, "a", "b"), time=0.0)
            assert not decision.dropped
            assert decision.extra_delay == 0.0
            assert decision.duplicate_delay is None
        assert model._rng.getstate() == state_before
        assert model.stats.messages_lost == 0


class TestNetworkWiring:
    def test_drops_counted_and_not_delivered(self):
        plan = FaultPlan.lossy(1.0)
        scheduler, network, nodes = make_net(plan)
        assert network.broadcast(MessageKind.TX, "n0", payload="p") == 0
        scheduler.run()
        assert all(node.received == [] for node in nodes)
        assert network.faults.stats.drops == 2
        assert scheduler.events_fired == 0

    def test_duplicates_deliver_twice(self):
        plan = FaultPlan(
            default_message_faults=MessageFaults(duplicate_probability=1.0)
        )
        scheduler, network, nodes = make_net(plan)
        network.send(Message(MessageKind.TX, "n0", "n1", payload="p"))
        scheduler.run()
        assert len(nodes[1].received) == 2
        assert network.faults.stats.duplicates == 1

    def test_delay_spike_postpones_delivery(self):
        plan = FaultPlan(
            default_message_faults=MessageFaults(
                delay_spike_probability=1.0, delay_spike_seconds=5.0
            )
        )
        scheduler, network, nodes = make_net(plan)
        network.send(Message(MessageKind.TX, "n0", "n1"))
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert scheduler.now > 0.01  # beyond the base latency
        assert network.faults.stats.delay_spikes == 1

    def test_partition_cuts_both_directions_until_heal(self):
        plan = FaultPlan(
            partitions=(Partition(members=("n0",), starts_at=0.0, heals_at=1.0),)
        )
        scheduler, network, nodes = make_net(plan)
        assert not network.send(Message(MessageKind.TX, "n0", "n1"))
        assert not network.send(Message(MessageKind.TX, "n1", "n0"))
        assert network.send(Message(MessageKind.TX, "n1", "n2"))
        scheduler.run()
        assert network.faults.stats.partition_drops == 2
        # After the heal the cut is gone.
        scheduler.schedule_in(2.0, lambda: None)
        scheduler.run()
        assert network.send(Message(MessageKind.TX, "n0", "n1"))

    def test_crashed_sender_and_recipient_lose_messages(self):
        plan = FaultPlan(crashes=(CrashEvent("n1", at=0.0, recover_at=10.0),))
        scheduler, network, nodes = make_net(plan)
        assert not network.send(Message(MessageKind.TX, "n1", "n2"))  # dead sender
        assert network.send(Message(MessageKind.TX, "n0", "n1"))  # scheduled...
        scheduler.run()
        assert nodes[1].received == []  # ...but dead on arrival
        assert network.faults.stats.crash_drops == 2

    def test_recovered_node_receives_again(self):
        plan = FaultPlan(crashes=(CrashEvent("n1", at=0.0, recover_at=5.0),))
        scheduler, network, nodes = make_net(plan)
        scheduler.schedule_in(
            6.0, lambda: network.send(Message(MessageKind.TX, "n0", "n1"))
        )
        scheduler.run()
        assert len(nodes[1].received) == 1

    def test_without_fault_model_behavior_unchanged(self):
        scheduler, network, nodes = make_net(plan=None)
        assert network.broadcast(MessageKind.TX, "n0", payload="p") == 2
        scheduler.run()
        assert all(len(node.received) == 1 for node in nodes[1:])
        assert network.faults is None
