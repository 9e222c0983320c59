"""The telemetry layer's perf record: heartbeats must be free when off.

A run with telemetry off pays two ``telemetry is None`` checks (arming
the heartbeat, taking the final snapshot) and, inside the run, the
mempool's one-int high-water compare per admission, which the shard
stats read. Shard stats themselves are folded after the run
(``ProtocolSimulation.shard_stats()``), so no hot path carries them.
This bench prices both sides of the switch:

* **disabled overhead** — two interleaved best-of-N telemetry-off legs
  bound the guard cost plus noise; the ``within_budget`` gate uses the
  *computed* overhead (guard cost per check x guarded operations /
  workload time), which is stable where A/B wall-clock deltas on
  shared runners are not. Budget: ≤2%.
* **enabled cost** — the same seeded run with heartbeats live, gated
  at ≤10%. The gate is computed the same way (microbenched
  per-heartbeat sampling cost times the samples the run takes); the
  measured A/B delta rides along as evidence.
* **the fold** — the best-of-N post-run ``shard_stats()`` time,
  reported on its own (``shard_stats_s``): a caller runs it once,
  after the run, whether telemetry was on or off.
* **determinism evidence** — the telemetry-on digest must equal the
  telemetry-off digest (the layer's core contract), and two enabled
  legs must agree with each other.

Emits ``benchmarks/results/BENCH_telemetry.json``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import timed, write_bench_record
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.net.network import LatencyModel
from repro.observe import Telemetry, get_telemetry
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import streaming_uniform_contract_workload

DISABLED_BUDGET_PCT = 2.0
ENABLED_BUDGET_PCT = 10.0
MINERS = 6
TXS = 600
SHARDS = 4
HEARTBEAT_INTERVAL = 25.0


def _simulate(telemetry: "Telemetry | bool", seed: int = 7):
    """A finished run and its simulation."""
    miners = [MinerIdentity.create(f"bench-tel-{i}") for i in range(MINERS)]
    stream = streaming_uniform_contract_workload(
        total_txs=TXS, contract_shards=SHARDS, seed=3
    )
    config = ProtocolConfig(
        pow_params=PoWParameters(difficulty=0x40000 // 60),
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        max_duration=3_000.0,
        seed=seed,
        trace=True,
        inject_batch=60,
        inject_interval=5.0,
        telemetry=telemetry,
    )
    sim = ProtocolSimulation(miners, stream, config=config)
    return sim, sim.run()


def _run(telemetry: "Telemetry | bool", seed: int = 7):
    return _simulate(telemetry, seed)[1]


def _fresh_telemetry() -> Telemetry:
    return Telemetry(heartbeat_interval=HEARTBEAT_INTERVAL)


def _heartbeat_ns_per_sample(samples: int = 2_000) -> float:
    """Per-sample cost of a heartbeat (getrusage included)."""
    telemetry = Telemetry(heartbeat_interval=1.0)
    telemetry.start()
    pool_depths = {shard: 10 for shard in range(SHARDS)}
    start = time.perf_counter()
    for i in range(samples):
        telemetry.heartbeat(
            time=float(i),
            injected=TXS,
            confirmed=i,
            evicted=0,
            pool_depths=pool_depths,
            events_fired=i,
        )
    elapsed = time.perf_counter() - start
    return elapsed / samples * 1e9


def _guard_ns_per_check(calls: int = 200_000) -> float:
    """Per-call cost of the disabled fast path.

    :func:`repro.observe.get_telemetry` is no cheaper than the
    attribute-is-None check or the one-int compare a guarded operation
    performs, so its disabled cost prices one.
    """
    start = time.perf_counter()
    for __ in range(calls):
        get_telemetry()
    return (time.perf_counter() - start) / calls * 1e9


def measure_telemetry_overhead(quick: bool = False) -> dict:
    repeats = 4 if quick else 8

    # Interleaved best-of-N (A/B/A/B...) so background drift bills both
    # legs equally — same methodology as bench_observe.
    reference_s = disabled_s = enabled_s = float("inf")
    for __ in range(repeats):
        reference_s = min(reference_s, timed(lambda: _run(telemetry=False)))
        disabled_s = min(disabled_s, timed(lambda: _run(telemetry=False)))
        enabled_s = min(
            enabled_s, timed(lambda: _run(telemetry=_fresh_telemetry()))
        )
    measured_disabled_pct = (disabled_s - reference_s) / reference_s * 100.0
    measured_enabled_pct = (enabled_s - reference_s) / reference_s * 100.0

    # Determinism evidence: telemetry on == telemetry off, bit for bit,
    # and two enabled legs agree with each other.
    off_sim, off = _simulate(telemetry=False)
    first_telemetry = _fresh_telemetry()
    first_sim, first = _simulate(telemetry=first_telemetry)
    second = _run(telemetry=_fresh_telemetry())
    assert first.trace.digest() == off.trace.digest(), (
        "telemetry on must not move the digest"
    )
    assert first.trace.digest() == second.trace.digest(), (
        "enabled legs must digest equal"
    )
    shard_stats_s = timed(first_sim.shard_stats, repeats)
    stats = first_sim.shard_stats()
    assert stats == off_sim.shard_stats()
    assert stats.total_confirmed == first.confirmed_count()

    # Guarded operations in one telemetry-off run: the run's two
    # telemetry checks, and a mempool high-water compare per admission.
    # A transaction goes only to its shard's pools, and a batch
    # admission compares once, so the pooled count bounds the compares.
    pooled = sum(
        off_sim.node(miner).stats.txs_pooled for miner in off_sim.assignment.shard_of
    )
    guarded_ops = 2 + pooled
    guard_ns = _guard_ns_per_check()
    computed_disabled_pct = guard_ns * guarded_ops / 1e9 / reference_s * 100.0

    # The enabled gate prices the work heartbeats add: one sample per
    # beat taken.
    beat_ns = _heartbeat_ns_per_sample()
    beats = len(first_telemetry.samples)
    computed_enabled_pct = beat_ns * beats / 1e9 / reference_s * 100.0

    return {
        "workload": (
            f"streamed protocol run ({MINERS} miners, {TXS} txs over "
            f"{SHARDS} contract shards, 60-tx batches every 5s, heartbeat "
            f"every {HEARTBEAT_INTERVAL:g}s sim time)"
        ),
        "mode": "quick" if quick else "full",
        "repeats_best_of": repeats,
        "disabled_reference_s": round(reference_s, 6),
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "overhead_disabled_pct": round(measured_disabled_pct, 3),
        "overhead_disabled_computed_pct": round(computed_disabled_pct, 4),
        "overhead_disabled_budget_pct": DISABLED_BUDGET_PCT,
        "overhead_enabled_pct": round(measured_enabled_pct, 3),
        "overhead_enabled_computed_pct": round(computed_enabled_pct, 4),
        "overhead_enabled_budget_pct": ENABLED_BUDGET_PCT,
        "within_budget": (
            computed_disabled_pct <= DISABLED_BUDGET_PCT
            and computed_enabled_pct <= ENABLED_BUDGET_PCT
        ),
        "guard_ns_per_check": round(guard_ns, 1),
        "guarded_ops": guarded_ops,
        "heartbeat_ns_per_sample": round(beat_ns, 1),
        "heartbeat_samples": beats,
        "shard_stats_s": round(shard_stats_s, 6),
        "shard_stats_blocks": stats.total_blocks,
        "trace_records": len(first.trace),
        "trace_digest": first.trace.digest(),
    }


def test_telemetry_overhead(benchmark) -> None:
    """pytest-benchmark entry: disabled leg timed, record emitted."""
    record = measure_telemetry_overhead(quick=True)
    write_bench_record("telemetry", record)
    assert record["within_budget"], record
    benchmark.pedantic(
        lambda: _run(telemetry=False),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Measure telemetry overhead (off and on) and emit "
        "BENCH_telemetry.json."
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer repetitions (CI smoke)"
    )
    args = parser.parse_args(argv)
    record = measure_telemetry_overhead(quick=args.quick)
    write_bench_record("telemetry", record)
    print(
        f"telemetry off {record['disabled_s']:.3f}s "
        f"(measured delta {record['overhead_disabled_pct']:+.2f}%, computed "
        f"{record['overhead_disabled_computed_pct']:.4f}% of budget "
        f"{record['overhead_disabled_budget_pct']}%), "
        f"on {record['enabled_s']:.3f}s "
        f"(measured {record['overhead_enabled_pct']:+.2f}%, computed "
        f"{record['overhead_enabled_computed_pct']:.4f}% of budget "
        f"{record['overhead_enabled_budget_pct']}%), "
        f"{record['heartbeat_samples']} heartbeats, "
        f"shard_stats() {record['shard_stats_s'] * 1e3:.2f}ms, "
        f"{record['trace_records']} records"
    )


if __name__ == "__main__":
    main()
