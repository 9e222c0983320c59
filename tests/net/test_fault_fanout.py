"""Differential test: fault-filtered fan-outs against the per-recipient loop.

:class:`~repro.net.network.Network` schedules every fan-out as one
delivery wave and lets the fault model judge the whole wave at once.
The reference below is the per-recipient loop it replaced: one latency
draw, one :func:`~tests.faults.oracle.judge_one`, then one
``schedule_in`` for a duplicate and one for the original, per
recipient. Under a plan that mixes drops, duplicates, delay spikes, a
partition and crashes (one starting exactly at a send time, one while
deliveries are in flight), both must produce
the same arrivals, the same :class:`~repro.faults.plan.FaultStats` and
the same ``fault.*`` trace records, seed after seed.
"""

import random

import pytest

from repro.faults.model import FaultModel
from repro.faults.plan import CrashEvent, FaultPlan, MessageFaults, Partition
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import Node
from repro.observe import Tracer
from tests.faults.oracle import judge_one
from tests.net.test_events import run_keyed

#: 36 nodes: a broadcast fans out to 35.
NODES = [f"n{i}" for i in range(36)]
LATENCY = LatencyModel(base_seconds=0.05, jitter_seconds=0.1)
PLAN = FaultPlan(
    default_message_faults=MessageFaults(
        drop_probability=0.2,
        duplicate_probability=0.15,
        delay_spike_probability=0.15,
        delay_spike_seconds=0.5,
    ),
    crashes=(
        # n3 goes down exactly when the t=1.0 sends go out.
        CrashEvent("n3", at=1.0, recover_at=2.0),
        # n5 goes down while the t=2.0 deliveries are in flight.
        CrashEvent("n5", at=2.07, recover_at=3.1),
    ),
    partitions=(Partition(members=("n1", "n2", "n7"), starts_at=1.5, heals_at=3.0),),
)


class Recorder(Node):
    def __init__(self, node_id, scheduler, arrivals):
        self._id = node_id
        self._scheduler = scheduler
        self._arrivals = arrivals

    @property
    def node_id(self):
        return self._id

    def receive(self, message):
        self._arrivals.append(
            (self._scheduler.now, self._id, message.kind, message.payload)
        )


class PerRecipientNetwork:
    """The retired fault path: one judged send and heap push per recipient."""

    def __init__(self, scheduler, latency, seed, faults):
        self._scheduler = scheduler
        self._latency = latency
        self._rng = random.Random(seed)
        self._faults = faults
        self._nodes = {}

    def register(self, node):
        self._nodes[node.node_id] = node

    def send(self, message):
        target = self._nodes[message.recipient]
        delay = self._latency.sample(self._rng)
        decision = judge_one(
            self._faults, message, self._scheduler.now, message.recipient
        )
        if decision.dropped:
            return False
        delay += decision.extra_delay
        if decision.duplicate_delay is not None:
            self._scheduler.schedule_in(
                delay + decision.duplicate_delay, self._deliver, target, message
            )
        self._scheduler.schedule_in(delay, self._deliver, target, message)
        return True

    def broadcast(self, kind, sender, payload, shard_id=None):
        return sum(
            self.send(Message(kind, sender, recipient, payload, shard_id))
            for recipient in self._nodes
            if recipient != sender
        )

    def multicast(self, kind, sender, payload, recipients, shard_id=None):
        return sum(
            self.send(Message(kind, sender, recipient, payload, shard_id))
            for recipient in recipients
            if recipient != sender
        )

    def _deliver(self, target, message):
        if self._faults.filter_delivery(message, self._scheduler.now):
            target.receive(message)


def _script(network):
    """(time, action) pairs: every entry point, senders in and out of faults."""
    actions = []
    for step in range(8):
        at = step * 0.5
        sender = NODES[(3 * step) % 8]
        actions += [
            (at, lambda s=sender, p=f"b{step}": network.broadcast(
                MessageKind.BLOCK, s, payload=p
            )),
            (at, lambda s=sender, p=f"t{step}", r=NODES[step:step + 9]: (
                network.multicast(MessageKind.TX, s, p, recipients=r, shard_id=step)
            )),
            (at, lambda s=sender, p=f"v{step}", r=NODES[step + 1]: network.send(
                Message(MessageKind.CROSS_SHARD_VOTE, s, r, p, shard_id=1)
            )),
        ]
    # The crashed sender, exactly at its crash time.
    actions.append(
        (1.0, lambda: network.broadcast(MessageKind.BLOCK, "n3", payload="down"))
    )
    return actions


def _run(network_class, seed):
    scheduler = Scheduler()
    tracer = Tracer()
    faults = FaultModel(PLAN, seed=seed + 1000, tracer=tracer)
    network = network_class(scheduler, LATENCY, seed, faults)
    arrivals = []
    for node_id in NODES:
        network.register(Recorder(node_id, scheduler, arrivals))
    returns = []
    for at, action in _script(network):
        scheduler.schedule_at(at, lambda action=action: returns.append(action()))
    # The (time, sequence) key of every fired event: a duplicate's
    # sequence number only shows in ties, so read it off the heap.
    keys = run_keyed(scheduler)
    records = [record.identity() for record in tracer.records]
    return arrivals, returns, faults.stats, records, keys


@pytest.mark.parametrize("seed", range(20))
def test_wave_filter_matches_per_recipient_loop(seed):
    arrivals, returns, stats, records, keys = _run(Network, seed)
    ref_arrivals, ref_returns, ref_stats, ref_records, ref_keys = _run(
        PerRecipientNetwork, seed
    )
    assert arrivals == ref_arrivals
    assert [int(r) for r in returns] == [int(r) for r in ref_returns]
    assert stats == ref_stats
    assert records == ref_records
    assert keys == ref_keys


def test_plan_exercises_every_fault():
    """The differential plan must actually fire every fault it mixes."""
    __, __, stats, records, __ = _run(Network, 0)
    assert stats.drops and stats.duplicates and stats.delay_spikes
    assert stats.partition_drops
    names = {record["name"] for record in records}
    assert {"fault.crash_drop", "fault.delivery_drop"} <= names


def test_faulty_broadcast_is_one_heap_entry():
    scheduler = Scheduler()
    plan = FaultPlan(
        default_message_faults=MessageFaults(
            duplicate_probability=0.5, delay_spike_probability=0.5
        )
    )
    network = Network(
        scheduler, LATENCY, seed=0, faults=FaultModel(plan, seed=1)
    )
    for node_id in NODES[:8]:
        network.register(Recorder(node_id, scheduler, []))
    assert network.broadcast(MessageKind.BLOCK, "n0", payload="b") == 7
    assert scheduler.pending >= 7
    assert scheduler.peak_pending == 1
