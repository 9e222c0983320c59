"""A protocol run holds no delivery past its horizon, and that changes
nothing it reports.

The run is shaped like the benchmark's ``wan-fanout`` workload: wide
fan-outs whose 60-150 s latencies outlast a 90 s horizon, run to the
horizon. Its scheduler drops every event and wave item due past
``max_duration``. The reference run holds all of them in an unbounded
scheduler and stops at ``max_duration`` instead; both must agree on the
trace digest, the events fired, the duration and the confirmed set.
"""

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters
from repro.faults.plan import FaultPlan
from repro.net import events
from repro.net.network import LatencyModel
from repro.observe import Telemetry, Tracer
from repro.sim import protocol
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

SEED = 3
HORIZON = 90.0


class UnboundedScheduler(events.Scheduler):
    """Holds every event, and stops at the run's horizon only in ``run``."""

    def __init__(self, horizon: float) -> None:
        super().__init__()
        self._until = horizon

    def run(self, until=None, **kwargs):
        return super().run(until=self._until if until is None else until, **kwargs)


class CountingWave(events.DeliveryWave):
    held = 0

    def __init__(self, times, seqs, items, deliver) -> None:
        CountingWave.held += len(times)
        super().__init__(times, seqs, items, deliver)


@pytest.fixture(scope="module")
def inputs():
    # Built once: transaction ids embed a process-wide serial, so both
    # runs must share one workload to compare digests.
    miners = [MinerIdentity.create(f"h{i}") for i in range(64)]
    txs = uniform_contract_workload(total_txs=50, contract_shards=3, seed=SEED)
    return miners, txs


def simulate(monkeypatch, inputs, faulty: bool, bounded: bool):
    miners, txs = inputs
    with monkeypatch.context() as patch:
        patch.setattr(events, "DeliveryWave", CountingWave)
        if not bounded:
            patch.setattr(protocol, "Scheduler", UnboundedScheduler)
        CountingWave.held = 0
        config = ProtocolConfig(
            seed=SEED,
            max_duration=HORIZON,
            run_to_horizon=True,
            pow_params=PoWParameters(difficulty=round(40.0 * REFERENCE_HASHRATE)),
            latency=LatencyModel(base_seconds=60.0, jitter_seconds=90.0),
            trace=Tracer(),
            # The faulty leg re-arms both self-scheduling events, the
            # retransmission sweep and the heartbeat, across the horizon.
            fault_plan=FaultPlan.lossy(0.1) if faulty else None,
            retransmit_interval=20.0 if faulty else None,
            telemetry=Telemetry(heartbeat_interval=7.0) if faulty else False,
        )
        sim = ProtocolSimulation(miners, txs, config=config)
        result = sim.run()
    return sim.scheduler, result, CountingWave.held


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
def test_cut_run_matches_a_run_that_holds_everything(monkeypatch, inputs, faulty):
    cut, cut_result, cut_held = simulate(monkeypatch, inputs, faulty, bounded=True)
    full, full_result, full_held = simulate(monkeypatch, inputs, faulty, bounded=False)
    assert cut_result.trace.digest() == full_result.trace.digest()
    assert cut.events_fired == full.events_fired
    assert cut.pending == full.pending
    assert cut_result.duration == full_result.duration == HORIZON
    assert cut_result.confirmed_tx_ids == full_result.confirmed_tx_ids
    assert cut_result.confirmed_tx_ids

    # The reference run held deliveries it never fired; the cut run
    # holds only what fires.
    assert cut_held < full_held
    assert cut.peak_pending < full.peak_pending
