"""Scale optimizations (delivery waves + mining calendar) parity.

``ProtocolConfig.delivery_waves`` and ``mining_calendar`` default to
True; setting either to False keeps the pre-optimization per-event code
as a differential oracle. These tests hold the optimized engine to the
*recorded* ``seed_digests.json`` baselines with the optimizations
disabled (proving the oracle paths are still the historical stream) and
to bit-identical digests oracle-vs-optimized, list and paced-stream
workloads alike — plus the heap-footprint claim
(``scheduler.peak_pending`` collapses under waves + calendar).
"""

import json
import pathlib

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.faults.plan import FaultPlan
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)
from tests.sim.test_engine_parity import PROFILES

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)

ORACLE = {"delivery_waves": False, "mining_calendar": False}


def _simulate(
    unified=False,
    faulty=False,
    paced=False,
    **options,
):
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    if paced:
        workload = streaming_uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    else:
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    plan = (
        FaultPlan.lossy(0.08, duplicate_probability=0.05) if faulty else None
    )
    tracer = Tracer()
    config = ProtocolConfig(
        seed=SEED,
        trace=tracer,
        max_duration=5000.0,
        fault_plan=plan,
        retransmit_interval=60.0 if faulty else None,
        pow_params=(
            PoWParameters.fast_confirmation()
            if paced
            else PoWParameters.one_block_per_minute()
        ),
        inject_batch=10 if paced else None,
        **options,
    )
    sim = ProtocolSimulation(identities, workload, config=config, unified=unified)
    result = sim.run()
    return sim, result, tracer.digest()


class TestOracleBaselineParity:
    """Waves and calendar off = the exact recorded historical stream."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_fast_oracle_matches_recorded_baseline(self, profile):
        __, __result, digest = _simulate(**PROFILES[profile], **ORACLE)
        assert digest == BASELINES[profile]


class TestOptimizedVsOracle:
    """Each optimization alone, and both together, change nothing."""

    @pytest.mark.parametrize(
        "options",
        [
            {"delivery_waves": False},
            {"mining_calendar": False},
            {},
        ],
        ids=["calendar-only", "waves-only", "both"],
    )
    def test_digest_matches_oracle(self, options):
        __, __r, oracle = _simulate(**ORACLE)
        __, __r, optimized = _simulate(**options)
        assert optimized == oracle == BASELINES["clean"]

    def test_faulty_digest_matches_oracle(self):
        # Faulty sends take the per-event path; waves must still cover
        # the fault-free remainder without disturbing the stream.
        __, __r, oracle = _simulate(faulty=True, **ORACLE)
        __, __r, optimized = _simulate(faulty=True)
        assert optimized == oracle == BASELINES["faulty"]

    def test_paced_stream_digest_matches_oracle(self):
        __, __r, oracle = _simulate(paced=True, **ORACLE)
        __, __r, optimized = _simulate(paced=True)
        assert optimized == oracle


class TestHeapFootprint:
    def _simulate_wide(self, **options):
        # The footprint win scales with miner count (waves collapse the
        # N-1 broadcast fan-out, the calendar the N standing mining
        # events), so measure it on a wider shard than the parity runs.
        identities = [MinerIdentity.create(f"w{i}") for i in range(32)]
        workload = uniform_contract_workload(
            total_txs=60, contract_shards=3, seed=SEED
        )
        tracer = Tracer()
        config = ProtocolConfig(
            seed=SEED, trace=tracer, max_duration=2000.0, **options
        )
        sim = ProtocolSimulation(identities, workload, config=config)
        result = sim.run()
        return sim, result

    def test_peak_pending_collapses_under_optimizations(self):
        """The point of the PR: the physical heap high-water mark drops
        by an order of magnitude; the gauge and wall sidecar record it."""
        sim_oracle, __ = self._simulate_wide(**ORACLE)
        sim_opt, result_opt = self._simulate_wide()
        assert sim_opt.scheduler.peak_pending * 10 <= sim_oracle.scheduler.peak_pending

        record = result_opt.trace.records_named("run.complete")[0]
        assert record.wall["peak_pending"] == sim_opt.scheduler.peak_pending
        gauge = result_opt.trace.metrics.gauge("scheduler.peak_pending")
        assert gauge.value == sim_opt.scheduler.peak_pending
