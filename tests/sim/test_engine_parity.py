"""Recorded-digest parity: every seeded run in ``seed_digests.json``.

The protocol engine has one scheduling path (wave fan-outs, per-shard
mining calendars); a fault plan only filters each wave's recipients.
The recorded trace digests pin it, with and without faults, bit for
bit across PR history:

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

Every one of those runs also checks execute-once agreement: honest
replicas at the same ``(shard, head)`` hold equal world states, however
many of them wrote another replica's block image instead of running the
block. Targeted regressions for the RNG draw-order contract, the shard
image tables, and the tip-delta world state against a replay from the
pre-genesis snapshot follow.
"""

import functools
import json
import pathlib
import random

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.net.network import LatencyModel
from repro.net.node import MAX_IMAGES
from repro.observe import Tracer
from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    TxStream,
    streaming_powerlaw_contract_workload,
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
    __, result, digest = _paced_sim(limit, batch)
    return result, digest


def _paced_sim(limit: int | None = None, batch: int = 10):
    """Paced streaming injection; ``(sim, result, digest)``."""
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
    return sim, result, tracer.digest()


def _run_to_horizon():
    """A run that ignores the drain condition and plays out 600 s."""
    identities = [MinerIdentity.create(f"m{i}") for i in range(4)]
    workload = uniform_contract_workload(
        total_txs=20, contract_shards=2, seed=11
    )
    config = ProtocolConfig(
        seed=11, trace=True, max_duration=600.0, run_to_horizon=True
    )
    sim = ProtocolSimulation(identities, workload, config=config)
    result = sim.run()
    assert result.duration == 600.0
    return sim, result.trace.digest()


def _run_wave_profile():
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
    sim = ProtocolSimulation(identities, workload, config=config)
    sim.run()
    return sim, tracer.digest()


def _run_zipf_stream():
    """The run of ``examples/telemetry.py``, telemetry off."""
    identities = [MinerIdentity.create(f"tel-{i}") for i in range(96)]
    stream = streaming_powerlaw_contract_workload(
        total_txs=1_600, contract_shards=64, alpha=1.1, seed=11
    )
    tracer = Tracer()
    config = ProtocolConfig(
        pow_params=PoWParameters(difficulty=0x40000 // 60),
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        seed=11,
        max_duration=3_000.0,
        inject_batch=200,
        inject_interval=5.0,
        mempool_limit=30,
        trace=tracer,
    )
    sim = ProtocolSimulation(identities, stream, config=config)
    sim.run()
    return sim, tracer.digest()


def _profile_run(profile: str):
    sim, result = _simulate(**PROFILES[profile])
    return sim, result.trace.digest()


#: Every recorded baseline reproduced in this file, mapped to a run
#: returning ``(sim, digest)``.
RUNS = {
    **{name: functools.partial(_profile_run, name) for name in PROFILES},
    "paced": lambda: _paced_sim()[::2],
    "paced-evict": lambda: _paced_sim(limit=4, batch=8)[::2],
    "horizon": _run_to_horizon,
    "wave-128": _run_wave_profile,
}


@functools.cache
def _seeded_run(name: str):
    """One run per recorded baseline, shared by the tests below."""
    return RUNS[name]()


class TestEngineDigestParity:
    @pytest.mark.parametrize("profile", sorted(RUNS))
    def test_fast_engine_matches_recorded_baseline(self, profile):
        """The committed digest pins event and draw order across PR
        history."""
        assert _seeded_run(profile)[1] == BASELINES[profile]

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
    exact draw values."""

    def test_prefetch_bit_equal_to_expovariate(self):
        from repro.consensus.pow import MiningProcess, PoWParameters

        params = PoWParameters.fast_confirmation()
        process = MiningProcess(params, seed=21)
        reference = random.Random(21)
        interval = params.expected_interval()
        # Span several refills of the prefetch buffer.
        for __ in range(3 * MiningProcess.PREFETCH + 5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / interval
            )


class TestStateOracle:
    @pytest.mark.parametrize(
        "profile", sorted(PROFILES) + ["paced", "paced-evict"]
    )
    def test_tip_delta_state_matches_replay_oracle(self, profile):
        """After a full run (reorgs and image writes included), every
        node's journaled world state must fingerprint identically to a
        from-scratch canonical replay — streamed sender provisioning
        included."""
        sim, __ = _seeded_run(profile)
        for public in sorted(sim.assignment.shard_of):
            node = sim.node(public)
            assert (
                node.state.fingerprint() == node.state_oracle_fingerprint()
            ), f"state drift on node {public[:10]} in profile {profile}"

    @pytest.mark.parametrize("profile", ["clean", "faulty"])
    def test_list_replicas_hold_only_their_shards_senders(self, profile):
        """Provisioning seeds a replica for its own shard's transactions
        only: no node holds a workload sender routed to another shard,
        with or without a fault plan."""
        sim, __ = _seeded_run(profile)
        home = {tx.sender: sim._classify(tx) for tx in sim._transactions}
        for public in sorted(sim.assignment.shard_of):
            node = sim.node(public)
            foreign = sorted(
                address
                for address in node.state.accounts
                if home.get(address, node.shard_id) != node.shard_id
            )
            assert not foreign, f"shard {node.shard_id} holds {foreign}"

    def test_ledger_incremental_matches_scan(self):
        sim, __ = _simulate(faulty=True)
        for public in sorted(sim.assignment.shard_of):
            ledger = sim.node(public).ledger
            assert ledger.confirmed_tx_ids() == confirmed_ids_scan(ledger)


def _agreement_run(name: str):
    """``(sim, digest, honest publics)`` of one recorded baseline."""
    if name.startswith("scenario-"):
        outcome = run_scenario(get_scenario(name[len("scenario-"):]), seed=0)
        return outcome.sim, outcome.digest, outcome.honest_publics()
    sim, digest = _run_zipf_stream() if name == "zipf-stream" else _seeded_run(name)
    return sim, digest, sorted(sim.assignment.shard_of)


class TestExecuteOnce:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_honest_replicas_at_one_head_agree(self, name):
        """Honest replicas of a shard at the same head hold the same
        world state, image writes or not."""
        sim, digest, honest = _agreement_run(name)
        assert digest == BASELINES[name]
        groups: dict[tuple[int, str], set[str]] = {}
        for public in honest:
            node = sim.node(public)
            groups.setdefault(
                (node.shard_id, node.ledger.head_hash), set()
            ).add(node.state.fingerprint())
        disagreeing = [key for key, prints in groups.items() if len(prints) > 1]
        assert not disagreeing, f"{name}: replicas disagree at {disagreeing}"

    def test_one_bounded_table_per_replicated_shard(self):
        replicas = set()
        for name in ("clean", "paced-evict", "wave-128"):
            sim, __ = _seeded_run(name)
            shards: dict[int, list] = {}
            for public, shard in sim.assignment.shard_of.items():
                shards.setdefault(shard, []).append(sim.node(public))
            for nodes in shards.values():
                replicas.add(min(len(nodes), 2))
                tables = {id(node.images) for node in nodes}
                assert len(tables) == 1, "a shard's replicas share one table"
                table = nodes[0].images
                if len(nodes) == 1:
                    assert table is None, "a lone replica records no images"
                else:
                    assert len(table) <= MAX_IMAGES
        assert replicas == {1, 2}  # both kinds of shard were checked
