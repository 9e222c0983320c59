"""Serial/parallel parity: the runtime's bit-identity contract.

Every fan-out point must produce the same bits under the serial executor
and a 2-worker process pool — the property DESIGN.md promises and the
benchmarks rely on when they compare wall clocks across executors.
"""

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.core.epoch import EpochManager
from repro.experiments import run_experiment
from repro.experiments.common import clear_experiment_caches
from repro.faults.plan import FaultPlan
from repro.net.network import LatencyModel
from repro.runtime import ProcessExecutor, SerialExecutor, use_executor
from repro.runtime.executor import fork_available
from repro.sim.campaign import Campaign
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import WorkloadBuilder, uniform_contract_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parity needs the process executor"
)

PARALLEL = ProcessExecutor(workers=2)


@pytest.mark.parametrize("experiment_id", ["table1", "fig3c", "fig4b"])
def test_experiment_rows_bit_identical(experiment_id):
    with use_executor(SerialExecutor()):
        clear_experiment_caches()
        serial = run_experiment(experiment_id, quick=True, seed=3)
    with use_executor(PARALLEL):
        clear_experiment_caches()
        parallel = run_experiment(experiment_id, quick=True, seed=3)
    assert serial.rows == parallel.rows  # == on floats: bit-identical


def _campaign_fingerprint(executor):
    def batch(epoch):
        builder = WorkloadBuilder()
        return [
            builder.contract_call(
                f"0xu-par-e{epoch}-c{c}-{u}", f"0xc{c:039d}", fee=1 + u % 5
            )
            for c in range(1, 4)
            for u in range(12)
        ]

    miners = [MinerIdentity.create(f"par-{i}") for i in range(16)]
    campaign = Campaign(EpochManager(miners), base_seed=5, executor=executor)
    result = campaign.run([batch(e) for e in range(3)])
    return (
        result.total_confirmed,
        [
            (
                e.epoch_index,
                e.result.confirmed_transactions,
                e.result.makespan,
                e.deferred_out,
            )
            for e in result.epochs
        ],
    )


def test_campaign_metrics_bit_identical():
    assert _campaign_fingerprint(SerialExecutor()) == _campaign_fingerprint(
        PARALLEL
    )


def _faulty_run(seed: int) -> tuple[float, ...]:
    """One lossy protocol run; every metric the fault layer influences."""
    miners = [MinerIdentity.create(f"parity-fault-{seed}-{i}") for i in range(4)]
    txs = uniform_contract_workload(total_txs=16, contract_shards=1, seed=seed)
    sim = ProtocolSimulation(
        miners,
        txs,
        config=ProtocolConfig(
            pow_params=PoWParameters(difficulty=0x40000 // 60),
            latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
            max_duration=2_000.0,
            seed=seed,
            fault_plan=FaultPlan.lossy(0.15),
            retransmit_interval=2.0,
        ),
    )
    result = sim.run()
    return (
        float(len(result.confirmed_tx_ids)),
        result.duration,
        float(result.drops),
        float(result.retransmissions),
    )


def test_fault_injected_runs_bit_identical_across_executors():
    seeds = [11, 12, 13]
    serial = SerialExecutor().map(_faulty_run, seeds)
    parallel = PARALLEL.map(_faulty_run, seeds)
    assert serial == parallel
    assert any(run[2] > 0 for run in serial)  # the fault plan really fired
