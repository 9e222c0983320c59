"""Telemetry must never move a digest.

Heartbeats sample scheduler and mempool state without emitting trace
records or consuming RNG draws; shard-load accounting reads counters
the run maintains anyway. These tests hold the whole telemetry layer
against the *recorded* ``seed_digests.json`` baselines on both engines
— fast and the frozen legacy oracle — so an instrumentation site that
accidentally perturbs event order or draw order cannot land.
"""

import json
import pathlib

import pytest

from repro.consensus.miner import MinerIdentity
from repro.observe import Telemetry
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)


def _run(engine: str, telemetry, stream=False):
    miners = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    if stream:
        workload = streaming_uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    else:
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    config = ProtocolConfig(
        seed=SEED,
        engine=engine,
        trace=True,
        max_duration=5000.0,
        telemetry=telemetry,
    )
    return ProtocolSimulation(miners, workload, config=config).run()


ENGINES = ["fast", "legacy"]


class TestDigestNeutrality:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_heartbeats_leave_recorded_baseline_untouched(self, engine):
        telemetry = Telemetry(heartbeat_interval=25.0)
        result = _run(engine, telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert telemetry.samples, "heartbeats should have fired"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_on_off_digests_identical(self, engine):
        on = _run(engine, Telemetry(heartbeat_interval=10.0))
        off = _run(engine, False)
        assert on.trace.digest() == off.trace.digest()
        assert on.confirmed_count() == off.confirmed_count()
        assert on.shard_stats is not None
        assert off.shard_stats is None

    def test_streamed_injection_stays_neutral(self):
        """Traffic accounting at injection time must not disturb the
        stream-vs-list digest equality contract."""
        on = _run("fast", Telemetry(heartbeat_interval=25.0), stream=True)
        off = _run("fast", False, stream=True)
        assert on.trace.digest() == off.trace.digest() == BASELINES["clean"]

    def test_final_heartbeat_only_when_interval_none(self):
        """``heartbeat_interval=None`` keeps the periodic sampler off
        but still takes the end-of-run snapshot for the load report."""
        telemetry = Telemetry(heartbeat_interval=None)
        result = _run("fast", telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert len(telemetry.samples) == 1

