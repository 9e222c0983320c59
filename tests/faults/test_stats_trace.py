"""Telemetry totals equal the result counters, fault by fault.

A traced faulty :class:`~repro.sim.protocol.ProtocolSimulation` reports
every injected fault twice: once in its
:class:`~repro.faults.plan.FaultStats` and once as a ``fault.*`` trace
record. The fault model judges a fan-out once per wave but still counts
and notes each recipient on its own, so the two views must agree exactly,
and each send-side record must name the one recipient it cost.
"""

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.faults.plan import CrashEvent, FaultPlan, MessageFaults, Partition
from repro.net.network import LatencyModel
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

#: FaultStats counter -> the ``fault.*`` records that count it.
RECORDS_OF = {
    "drops": ("fault.drop",),
    "duplicates": ("fault.duplicate",),
    "delay_spikes": ("fault.delay",),
    "partition_drops": ("fault.partition_drop",),
    # A crash costs the messages the dead node sends and the ones that
    # arrive while it is down (a crashed miner sends nothing in a
    # protocol run, so here every crash drop is a delivery drop).
    "crash_drops": ("fault.crash_drop", "fault.delivery_drop"),
}
SEND_SIDE = (
    "fault.drop",
    "fault.duplicate",
    "fault.delay",
    "fault.partition_drop",
    "fault.crash_drop",
)


def traced_faulty_run(seed):
    miners = [MinerIdentity.create(f"stt-{i}") for i in range(8)]
    txs = uniform_contract_workload(total_txs=32, contract_shards=2, seed=seed)
    plan = FaultPlan(
        default_message_faults=MessageFaults(
            drop_probability=0.1,
            duplicate_probability=0.1,
            delay_spike_probability=0.1,
            delay_spike_seconds=0.5,
        ),
        crashes=(CrashEvent(miners[3].public, at=0.3, recover_at=3.0),),
        partitions=(
            Partition(
                members=(miners[0].public, miners[1].public),
                starts_at=0.0,
                heals_at=1.0,
            ),
        ),
    )
    config = ProtocolConfig(
        pow_params=PoWParameters(difficulty=0x40000 // 60),
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        seed=seed,
        max_duration=2_000.0,
        fault_plan=plan,
        retransmit_interval=0.5,
        trace=Tracer(),
    )
    return ProtocolSimulation(miners, txs, config=config).run()


@pytest.fixture(scope="module", params=(3, 7))
def run(request):
    return traced_faulty_run(request.param)


@pytest.mark.parametrize("counter", sorted(RECORDS_OF))
def test_each_fault_counter_equals_its_records(run, counter):
    expected = getattr(run.fault_stats, counter)
    assert expected > 0, f"the plan never fired {counter}"
    assert expected == sum(run.trace.count(name) for name in RECORDS_OF[counter])


def test_send_side_records_name_one_recipient_each(run):
    cut: dict[tuple, list[str]] = {}
    for name in SEND_SIDE:
        for record in run.trace.records_named(name):
            recipient = record.attrs["recipient"]
            assert recipient is not None and recipient != record.actor
            if name == "fault.partition_drop":
                key = (record.time, record.actor, record.attrs["kind"])
                cut.setdefault(key, []).append(recipient)
    # A fan-out across the partition is noted recipient by recipient.
    assert any(len(set(recipients)) > 1 for recipients in cut.values())
