#!/usr/bin/env python3
"""Watching a run: heartbeats, shard-load telemetry, hotspot indices.

Telemetry (:mod:`repro.observe.telemetry`) answers the question tracing
doesn't: *what is the run doing right now, and which shards are doing
it?* A heartbeat samples throughput, per-shard mempool depth and peak
RSS at a fixed simulated-time interval — printing an optional live
progress line — and the final shard-load report breaks the run down
per shard: blocks forged, empty-block rate, mempool high-water marks,
the cross-shard traffic matrix, and the imbalance indices (max/mean,
Gini) a dynamic re-sharding policy would act on.

None of it moves a digest: heartbeats never emit trace records or
consume RNG draws, so the same seed with telemetry on or off produces
the same run, byte for byte. The run below is traced, and its digest
is the recorded ``zipf-stream`` entry of ``tests/sim/seed_digests.json``
(recorded with telemetry off).

This walkthrough:

1. streams a Zipf-skewed workload (shard 1 receives the lion's share)
   across 64 contract shards with paced injection and a bounded
   mempool, heartbeats live on stderr;
2. prints the run report, whose shards section is the shard-load
   picture — the hot shard dominates the confirmation column and the
   imbalance indices say so numerically;
3. shows the empty-block rate splitting hot from cold shards, and the
   eviction column pinning backpressure to the overloaded shard;
4. prints the run's trace digest.

Run:  python examples/telemetry.py
"""

from repro import ProtocolConfig, ProtocolSimulation
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.net.network import LatencyModel
from repro.observe import RunReport, Telemetry, Tracer
from repro.workloads import streaming_powerlaw_contract_workload

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s solo blocks
LOW_LATENCY = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)

MINERS = 96
TXS = 1_600
SHARDS = 64
ALPHA = 1.1  # Zipf exponent: shard 1 gets ~25x shard 64's call volume


def main() -> None:
    miners = [MinerIdentity.create(f"tel-{i}") for i in range(MINERS)]
    stream = streaming_powerlaw_contract_workload(
        total_txs=TXS, contract_shards=SHARDS, alpha=ALPHA, seed=11
    )
    print(f"workload: {stream.description}")
    hot = max(stream.shard_counts.values())
    cold = min(
        count for shard, count in stream.shard_counts.items() if shard != 0
    )
    print(f"declared skew: hottest shard {hot} txs, coldest {cold} txs")

    telemetry = Telemetry(heartbeat_interval=10.0, progress=True)
    tracer = Tracer()
    config = ProtocolConfig(
        pow_params=FAST_POW,
        latency=LOW_LATENCY,
        seed=11,
        max_duration=3_000.0,
        inject_batch=200,
        inject_interval=5.0,
        mempool_limit=30,
        trace=tracer,
        telemetry=telemetry,
    )
    sim = ProtocolSimulation(miners, stream, config=config)
    result = sim.run()

    print()
    print(
        f"confirmed {result.confirmed_count()}/{TXS} transactions in "
        f"{result.duration:.0f} simulated seconds "
        f"({result.evicted} evicted by the mempool bound)"
    )
    print(f"heartbeats sampled: {len(telemetry.samples)}")
    print()

    stats = sim.shard_stats()
    print(RunReport.from_run(tracer, stats, title="skewed 64-shard run").render())
    print()

    imbalance = stats.imbalance()
    print(
        f"hotspot verdict: the busiest shard carries "
        f"{imbalance['max_over_mean']:.1f}x the mean confirmation load "
        f"(gini {imbalance['gini']:.2f}) — the signal a re-sharding "
        f"policy would trigger on."
    )
    print()
    print(f"trace digest {tracer.digest()} (same with telemetry off)")


if __name__ == "__main__":
    main()
