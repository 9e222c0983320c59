"""Every protocol run has shard stats: a fold of the finished run.

``ProtocolSimulation.shard_stats()`` reads what a run keeps anyway, so
it needs no telemetry. The toy inputs of the four benchmark workloads
(``perfbench/workloads.py``), which all run with telemetry off, must
fold to stats that add up to the result's own counters. Heartbeats
only read, so on a list input built once the stats are the same with
them on. Streams are left out of that comparison: iterating a stream
again mints new transaction ids.
"""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest

from repro.observe import Telemetry
from repro.sim.protocol import ProtocolSimulation

SEED = 48


def _benchmark_workloads():
    path = pathlib.Path(__file__).resolve().parents[2] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


WORKLOADS = _benchmark_workloads()


def _run(inputs, telemetry=False):
    config = dataclasses.replace(inputs.config, telemetry=telemetry)
    sim = ProtocolSimulation(
        inputs.miners, inputs.transactions, config=config, assignment=inputs.assignment
    )
    return sim.run(), sim.shard_stats()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stats_add_up_to_the_result_counters(name):
    inputs = WORKLOADS[name].build(SEED, True)
    assert inputs.config.telemetry is False
    result, stats = _run(inputs)
    assert {
        shard: entry.txs_confirmed for shard, entry in stats.loads.items()
    } == result.per_shard_confirmed
    assert stats.total_blocks == sum(result.rewards.blocks_mined.values())
    assert sum(entry.blocks_empty for entry in stats.loads.values()) == sum(
        result.rewards.empty_blocks_mined.values()
    )
    assert sum(entry.evictions for entry in stats.loads.values()) == result.evicted
    routed = sum(sum(row.values()) for row in stats.traffic.values())
    assert routed == inputs.injected


@pytest.mark.parametrize("name", ["lossy-crash", "wan-fanout"])
def test_heartbeats_leave_the_stats_unchanged(name):
    inputs = WORKLOADS[name].build(SEED, True)
    assert isinstance(inputs.transactions, list)
    __, off = _run(inputs)
    telemetry = Telemetry(heartbeat_interval=5.0)
    __, on = _run(inputs, telemetry)
    assert telemetry.samples
    assert on == off
