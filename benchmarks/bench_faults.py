"""Fault injection: confirmed throughput vs. message-drop rate.

The robustness companion to the paper's throughput figures: the same
full-node protocol run, but with the seeded fault layer dropping a
growing fraction of every gossip message. Retransmission sweeps keep
each shard draining, so throughput should degrade gracefully — longer
drain times — rather than fall off a cliff, until loss overwhelms the
retransmit budget.
"""

from __future__ import annotations

import pathlib

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.faults.plan import FaultPlan
from repro.net.network import LatencyModel
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DROP_RATES = (0.0, 0.1, 0.2, 0.35, 0.5)


def faulty_run(drop_rate: float, seed: int = 0) -> dict[str, float]:
    """One protocol run under ``drop_rate`` loss; drain-time metrics."""
    miners = [MinerIdentity.create(f"fault-{seed}-{i}") for i in range(6)]
    txs = uniform_contract_workload(total_txs=40, contract_shards=2, seed=seed)
    plan = FaultPlan.lossy(drop_rate) if drop_rate > 0 else FaultPlan.none()
    sim = ProtocolSimulation(
        miners,
        txs,
        config=ProtocolConfig(
            pow_params=PoWParameters(difficulty=0x40000 // 60),  # ~1 s solo
            latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
            max_duration=2_000.0,
            seed=seed,
            fault_plan=plan,
            retransmit_interval=2.0,
        ),
    )
    result = sim.run()
    drained = result.confirmed_tx_ids >= set(sim._tally.confirming)
    return {
        "confirmed": float(len(result.confirmed_tx_ids)),
        "duration": result.duration,
        "throughput": len(result.confirmed_tx_ids) / max(result.duration, 1e-9),
        "drops": float(result.drops),
        "retransmissions": float(result.retransmissions),
        "drained": float(drained),
    }


def sweep(seeds: tuple[int, ...] = (0, 1, 2)) -> dict[float, dict[str, float]]:
    """Mean metrics per drop rate across ``seeds``."""
    series: dict[float, dict[str, float]] = {}
    for rate in DROP_RATES:
        runs = [faulty_run(rate, seed=s) for s in seeds]
        series[rate] = {
            key: sum(run[key] for run in runs) / len(runs) for key in runs[0]
        }
    return series


def test_fault_throughput_degradation(benchmark):
    print("\n[faults] confirmed throughput vs message-drop rate "
          "(6 miners, 2 shards, retransmit every 2 s)")
    series = sweep()
    lines = []
    for rate, row in series.items():
        line = (f"  drop={rate:>4.0%}: throughput = {row['throughput']:6.2f} tx/s"
                f"  drain = {row['duration']:7.2f} s"
                f"  drops = {row['drops']:6.1f}"
                f"  retransmissions = {row['retransmissions']:5.1f}")
        lines.append(line)
        print(line)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "faults_drop_sweep.txt").write_text("\n".join(lines) + "\n")

    # Every configuration drains its relevant transactions...
    assert all(row["drained"] == 1.0 for row in series.values())
    # ...the fault layer is really injecting loss...
    assert series[0.0]["drops"] == 0
    assert series[0.5]["drops"] > series[0.1]["drops"] > 0
    # ...and repairs cost time: heavy loss cannot beat the lossless run.
    assert series[0.5]["duration"] >= series[0.0]["duration"]

    benchmark.pedantic(
        lambda: faulty_run(0.2, seed=9), rounds=1, iterations=1
    )
