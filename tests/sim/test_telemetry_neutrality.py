"""Telemetry must never move a digest.

Heartbeats sample scheduler and mempool state without emitting trace
records or consuming RNG draws; shard-load stats are folded from the
finished run. These tests hold the whole telemetry layer against the
*recorded* ``seed_digests.json`` baselines, so a heartbeat that
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


def _simulate(telemetry, stream=False, seed=SEED, miners=MINERS, txs=TXS, shards=3):
    identities = [MinerIdentity.create(f"m{i}") for i in range(miners)]
    if stream:
        workload = streaming_uniform_contract_workload(
            total_txs=txs, contract_shards=shards, seed=seed
        )
    else:
        workload = uniform_contract_workload(
            total_txs=txs, contract_shards=shards, seed=seed
        )
    config = ProtocolConfig(
        seed=seed,
        trace=True,
        max_duration=5000.0,
        telemetry=telemetry,
    )
    sim = ProtocolSimulation(identities, workload, config=config)
    return sim, sim.run()


def _run(telemetry, stream=False):
    return _simulate(telemetry, stream)[1]


class TestDigestNeutrality:
    def test_heartbeats_leave_recorded_baseline_untouched(self):
        telemetry = Telemetry(heartbeat_interval=25.0)
        result = _run(telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert telemetry.samples, "heartbeats should have fired"

    def test_on_off_digests_identical(self):
        sim_on, on = _simulate(Telemetry(heartbeat_interval=10.0))
        sim_off, off = _simulate(False)
        assert on.trace.digest() == off.trace.digest() == BASELINES["clean"]
        assert on.confirmed_count() == off.confirmed_count()
        assert sim_on.shard_stats() == sim_off.shard_stats()

    @pytest.mark.parametrize("seed", [7, 23])
    def test_heartbeat_on_off_digests_agree_across_seeds(self, seed):
        """Off the recorded baselines too: 8 miners, 60 txs, 4 shards."""
        shape = dict(seed=seed, miners=8, txs=60, shards=4)
        on = _simulate(Telemetry(heartbeat_interval=20.0), **shape)[1]
        off = _simulate(False, **shape)[1]
        assert on.trace.digest() == off.trace.digest()

    def test_streamed_injection_stays_neutral(self):
        """Heartbeats must not disturb the stream-vs-list digest
        equality contract."""
        on = _run(Telemetry(heartbeat_interval=25.0), stream=True)
        off = _run(False, stream=True)
        assert on.trace.digest() == off.trace.digest() == BASELINES["clean"]

    def test_final_heartbeat_only_when_interval_none(self):
        """``heartbeat_interval=None`` keeps the periodic sampler off
        but still takes the end-of-run snapshot."""
        telemetry = Telemetry(heartbeat_interval=None)
        result = _run(telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert len(telemetry.samples) == 1

