"""Recorded-digest parity: every seeded run in ``seed_digests.json``.

The protocol engine has one scheduling path for fault-free runs (wave
fan-outs, per-shard mining calendars) and one for faulty runs (one
filtered send per recipient). The recorded trace digests pin both, bit
for bit, across PR history:

* ``clean``/``faulty``/``unified``/``unified-faulty`` — 6 miners, 40
  transactions, with and without loss and parameter unification;
* ``paced``/``paced-evict`` — paced streaming injection, with and
  without a mempool bound that evicts;
* ``horizon`` — a run that ignores the drain condition;
* ``wave-128`` — 128 miners with minute-scale propagation, so thousands
  of wave deliveries are in flight at once;
* ``zipf-stream`` — the 96-miner, 64-shard Zipf paced stream that
  ``examples/telemetry.py`` runs and prints the digest of, checked in
  ``tests/test_examples.py``;
* ``scenario-<name>`` — the five adversarial scenarios at seed 0,
  checked in ``tests/scenarios/test_determinism.py``.

Targeted regressions for the RNG draw-order contract, scheduler
compaction, and the tip-delta world state against a replay from the
pre-genesis snapshot follow.
"""

import json
import pathlib
import random

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.net.events import Scheduler
from repro.net.network import LatencyModel
from repro.observe import Tracer
from repro.scenarios import scenario_names
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    TxStream,
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)
from tests.conftest import confirmed_ids_scan

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)

PROFILES = {
    "clean": {},
    "faulty": {"faulty": True},
    "unified": {"unified": True},
    "unified-faulty": {"unified": True, "faulty": True},
}


def _simulate(unified: bool = False, faulty: bool = False):
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    workload = uniform_contract_workload(
        total_txs=TXS, contract_shards=3, seed=SEED
    )
    plan = (
        FaultPlan.lossy(0.08, duplicate_probability=0.05) if faulty else None
    )
    config = ProtocolConfig(
        seed=SEED,
        trace=True,
        max_duration=5000.0,
        fault_plan=plan,
        retransmit_interval=60.0 if faulty else None,
    )
    sim = ProtocolSimulation(identities, workload, config=config, unified=unified)
    result = sim.run()
    return sim, result


def _stream() -> TxStream:
    return streaming_uniform_contract_workload(
        total_txs=TXS, contract_shards=3, seed=SEED
    )


def _run_paced(limit: int | None = None, batch: int = 10):
    """Paced streaming injection; ``(result, digest)``."""
    tracer = Tracer()
    config = ProtocolConfig(
        seed=SEED,
        trace=tracer,
        max_duration=5000.0,
        pow_params=PoWParameters.fast_confirmation(),
        inject_batch=batch,
        inject_interval=1.0,
        mempool_limit=limit,
    )
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    sim = ProtocolSimulation(identities, _stream(), config=config)
    result = sim.run()
    return result, tracer.digest()


def _run_to_horizon():
    """A run that ignores the drain condition and plays out 600 s."""
    identities = [MinerIdentity.create(f"m{i}") for i in range(4)]
    workload = uniform_contract_workload(
        total_txs=20, contract_shards=2, seed=11
    )
    config = ProtocolConfig(
        seed=11, trace=True, max_duration=600.0, run_to_horizon=True
    )
    result = ProtocolSimulation(identities, workload, config=config).run()
    assert result.duration == 600.0
    return result


def _run_wave_profile() -> str:
    """128 miners, 40 s to the horizon, 60-150 s propagation delays."""
    identities = [MinerIdentity.create(f"m{i}") for i in range(128)]
    workload = uniform_contract_workload(total_txs=50, contract_shards=3, seed=13)
    tracer = Tracer()
    config = ProtocolConfig(
        seed=13,
        trace=tracer,
        max_duration=40.0,
        run_to_horizon=True,
        pow_params=PoWParameters(difficulty=round(40.0 * REFERENCE_HASHRATE)),
        latency=LatencyModel(base_seconds=60.0, jitter_seconds=90.0),
    )
    ProtocolSimulation(identities, workload, config=config).run()
    return tracer.digest()


def _profile_digest(profile: str) -> str:
    return _simulate(**PROFILES[profile])[1].trace.digest()


#: Every recorded baseline reproduced in this file, mapped to its run.
RUNS = {
    **{name: (lambda name=name: _profile_digest(name)) for name in PROFILES},
    "paced": lambda: _run_paced()[1],
    "paced-evict": lambda: _run_paced(limit=4, batch=8)[1],
    "horizon": lambda: _run_to_horizon().trace.digest(),
    "wave-128": _run_wave_profile,
}


class TestEngineDigestParity:
    @pytest.mark.parametrize("profile", sorted(RUNS))
    def test_fast_engine_matches_recorded_baseline(self, profile):
        """The committed digest pins event and draw order across PR
        history."""
        assert RUNS[profile]() == BASELINES[profile]

    def test_every_baseline_is_reproduced(self):
        scenarios = {f"scenario-{name}" for name in scenario_names()}
        assert set(BASELINES) == set(RUNS) | scenarios | {"zipf-stream"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="engine must be 'fast'"):
            ProtocolConfig(engine="turbo")

    def test_legacy_engine_rejected(self):
        with pytest.raises(ConfigError, match="^engine .*'legacy'"):
            ProtocolConfig(engine="legacy")


class TestDrawOrderContract:
    """``sample_many`` must consume the exact stream of repeated
    ``sample`` calls — the contract the broadcast fast path rests on."""

    def test_sample_many_matches_sequential_samples(self):
        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.03)
        a, b = random.Random(99), random.Random(99)
        assert model.sample_many(a, 17) == [model.sample(b) for __ in range(17)]
        # And the streams stay aligned afterwards.
        assert a.random() == b.random()

    def test_sample_many_zero_jitter_draws_nothing(self):
        model = LatencyModel(base_seconds=0.02, jitter_seconds=0.0)
        rng = random.Random(5)
        before = rng.getstate()
        assert model.sample_many(rng, 8) == [0.02] * 8
        assert rng.getstate() == before

    def test_sample_many_numpy_batch_bit_equal_to_scalar(self):
        """Counts at/above the numpy batching threshold must still be
        bit-identical to per-call sampling — IEEE multiply/add is
        elementwise identical, and digests depend on it."""
        from repro.net import network as network_mod

        threshold = network_mod._NUMPY_BATCH_MIN
        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.03)
        for count in (threshold, threshold + 1, 4 * threshold + 3):
            a, b = random.Random(7), random.Random(7)
            batched = model.sample_many(a, count)
            scalar = [model.sample(b) for __ in range(count)]
            assert batched == scalar  # exact float equality, not approx
            assert a.random() == b.random()

    def test_sample_many_without_numpy_matches(self, monkeypatch):
        """The pure-Python fallback (numpy absent) is the same stream."""
        from repro.net import network as network_mod

        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.03)
        a, b = random.Random(13), random.Random(13)
        with_np = model.sample_many(a, 64)
        monkeypatch.setattr(network_mod, "_np", None)
        without_np = model.sample_many(b, 64)
        assert with_np == without_np


class TestMiningPrefetchContract:
    """The prefetched uniform buffer must reproduce ``expovariate``'s
    exact draw values, including across a mid-stream retarget."""

    def test_prefetch_bit_equal_to_expovariate(self):
        from repro.consensus.pow import MiningProcess, PoWParameters

        params = PoWParameters.fast_confirmation()
        process = MiningProcess(params, hashrate_fraction=0.5, seed=21)
        reference = random.Random(21)
        interval = params.expected_interval(0.5)
        # Span several refills of the prefetch buffer.
        for __ in range(3 * MiningProcess.PREFETCH + 5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / interval
            )

    def test_retarget_applies_from_next_draw(self):
        from repro.consensus.pow import MiningProcess, PoWParameters

        params = PoWParameters.one_block_per_minute()
        process = MiningProcess(params, hashrate_fraction=1.0, seed=3)
        reference = random.Random(3)
        for __ in range(5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / params.expected_interval(1.0)
            )
        # Retarget mid-buffer: already-prefetched uniforms must be
        # re-scaled by the new interval, not served at the old one.
        process.retarget(0.25)
        for __ in range(5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / params.expected_interval(0.25)
            )


class TestSchedulerCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_in(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        assert scheduler.compactions >= 1
        assert scheduler.pending == 50
        # The surviving events still fire in order.
        assert scheduler.run() == 200.0

    def test_small_heaps_never_compact(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_in(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert scheduler.compactions == 0
        assert scheduler.pending == 0


class TestStateOracle:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_tip_delta_state_matches_replay_oracle(self, profile):
        """After a full run (reorgs included), every node's journaled
        world state must fingerprint identically to a from-scratch
        canonical replay."""
        sim, __ = _simulate(**PROFILES[profile])
        for public in sorted(sim.assignment.shard_of):
            node = sim.node(public)
            assert (
                node.state.fingerprint() == node.state_oracle_fingerprint()
            ), f"state drift on node {public[:10]} in profile {profile}"

    def test_ledger_incremental_matches_scan(self):
        sim, __ = _simulate(faulty=True)
        for public in sorted(sim.assignment.shard_of):
            ledger = sim.node(public).ledger
            assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)
