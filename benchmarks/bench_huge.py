"""Streaming-campaign scale bench: bounded-memory injection at 10^5 txs.

The ``huge`` profile exercises the streaming-workload layer end to end:
generator-backed :class:`~repro.workloads.generators.TxStream` feeding
paced injection (``inject_batch=``) with a bounded mempool, on the fast
engine, untraced. Two subprocess-isolated runs — a base scale (10^4
txs) and a big scale (10^5 txs) — each report wall time, events fired,
and their own peak RSS (``ru_maxrss``), so the record captures the
claim that matters: **memory stays bounded while the transaction count
grows 10×**. The chain itself is O(txs) (confirmed blocks are the
output), so the gate is a ratio, not a constant: the big run's peak
RSS must stay under ``RSS_RATIO_LIMIT`` × the base run's.

Before any timing, a digest-parity gate runs at baseline scale: an
unpaced ``TxStream`` vs. the materialized list workload (generator
injection must be bit-identical to list injection). The paced run's
digest is recorded alongside.

The record also demonstrates the capacity refusal: materializing a
stream above ``MAX_MATERIALIZED_TXS`` — i.e. attempting list-based
injection at campaign scale — must raise ``WorkloadError``, loudly.

``events_per_s`` (big run) is recorded in full mode; ``--quick`` (the
CI smoke profile, 10× smaller) records it under an informational key so
a smoke run is never mistaken for the committed full-scale figure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import write_bench_record
from repro.errors import WorkloadError
from repro.workloads.generators import (
    MAX_MATERIALIZED_TXS,
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)

SEED = 11
MINERS = 4
CONTRACT_SHARDS = 3

#: Paced-injection operating point: 500 tx/s offered vs. ~76 tx/s
#: confirmed throughput, so the mempool bound and backpressure deferral
#: are genuinely exercised (not just configured).
INJECT_BATCH = 500
INJECT_INTERVAL = 1.0
MEMPOOL_LIMIT = 2000
TX_PER_SECOND = 76.0
BLOCK_CAPACITY = 100

#: (base, big) transaction counts. Full mode is the acceptance profile:
#: the big run exceeds MAX_MATERIALIZED_TXS, so list injection at that
#: scale is impossible by construction.
FULL_SCALES = (10_000, 100_000)
QUICK_SCALES = (2_000, 10_000)

#: The big run may cost at most this multiple of the base run's peak
#: RSS despite carrying 10x the transactions.
RSS_RATIO_LIMIT = 4.0

#: Parity-gate scale: small enough to trace, large enough to mine
#: multiple blocks per shard.
PARITY_TXS = 400


def _child_payload(total: int) -> dict:
    """Run one paced streaming campaign and report its footprint.

    Runs inside a fresh interpreter (see :func:`_run_isolated`) so
    ``ru_maxrss`` is this run's peak, not the bench harness's.
    """
    import resource

    from repro.consensus.miner import MinerIdentity
    from repro.consensus.pow import PoWParameters
    from repro.sim.protocol import ProtocolConfig, ProtocolSimulation

    stream = streaming_uniform_contract_workload(
        total_txs=total, contract_shards=CONTRACT_SHARDS, seed=SEED
    )
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    config = ProtocolConfig(
        seed=SEED,
        engine="fast",
        trace=False,
        max_duration=5_000_000.0,
        pow_params=PoWParameters.fast_confirmation(
            TX_PER_SECOND, block_capacity=BLOCK_CAPACITY
        ),
        block_capacity=BLOCK_CAPACITY,
        inject_batch=INJECT_BATCH,
        inject_interval=INJECT_INTERVAL,
        mempool_limit=MEMPOOL_LIMIT,
    )
    sim = ProtocolSimulation(identities, stream, config=config)
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return {
        "total_txs": total,
        "wall_s": round(wall, 4),
        "events_fired": sim.scheduler.events_fired,
        # Physical heap-entry high-water mark (delivery waves and the
        # mining calendar keep this far below the logical event count).
        "peak_pending": sim.scheduler.peak_pending,
        "confirmed": result.confirmed_count(),
        "evicted": result.evicted,
        "duration_s": round(result.duration, 2),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _run_isolated(total: int) -> dict:
    """Run :func:`_child_payload` in a fresh interpreter, return its JSON."""
    env = dict(os.environ)
    repo = pathlib.Path(__file__).resolve().parent.parent
    extra = os.pathsep.join(str(p) for p in (repo, repo / "src"))
    env["PYTHONPATH"] = (
        extra + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else extra
    )
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--child", str(total)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"isolated run of {total} txs failed "
            f"(exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _parity_digest(paced: bool, workload) -> str:
    from repro.consensus.miner import MinerIdentity
    from repro.consensus.pow import PoWParameters
    from repro.sim.protocol import ProtocolConfig, ProtocolSimulation

    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    config = ProtocolConfig(
        seed=SEED,
        trace=True,
        max_duration=500_000.0,
        pow_params=PoWParameters.fast_confirmation(),
        inject_batch=INJECT_BATCH // 10 if paced else None,
        inject_interval=INJECT_INTERVAL,
        mempool_limit=MEMPOOL_LIMIT // 10 if paced else None,
    )
    sim = ProtocolSimulation(identities, workload, config=config)
    return sim.run().trace.digest()


def _parity_gates() -> dict:
    """Digest equality gates that make the timing legs meaningful."""
    list_workload = uniform_contract_workload(
        total_txs=PARITY_TXS, contract_shards=CONTRACT_SHARDS, seed=SEED
    )

    def stream():
        return streaming_uniform_contract_workload(
            total_txs=PARITY_TXS, contract_shards=CONTRACT_SHARDS, seed=SEED
        )

    list_digest = _parity_digest(paced=False, workload=list_workload)
    stream_digest = _parity_digest(paced=False, workload=stream())
    paced_digest = _parity_digest(paced=True, workload=stream())
    return {
        "txs": PARITY_TXS,
        "stream_vs_list": stream_digest == list_digest,
        "trace_digest_unpaced": list_digest,
        "trace_digest_paced": paced_digest,
    }


def _refusal_record() -> dict:
    """List injection at campaign scale must be refused, loudly."""
    big = streaming_uniform_contract_workload(
        total_txs=FULL_SCALES[1], contract_shards=CONTRACT_SHARDS, seed=SEED
    )
    try:
        big.materialize()
    except WorkloadError as exc:
        return {
            "total_txs": FULL_SCALES[1],
            "cap": MAX_MATERIALIZED_TXS,
            "refused": True,
            "error": str(exc),
        }
    return {
        "total_txs": FULL_SCALES[1],
        "cap": MAX_MATERIALIZED_TXS,
        "refused": False,
        "error": None,
    }


def run_bench(quick: bool = False) -> dict:
    base_total, big_total = QUICK_SCALES if quick else FULL_SCALES
    parity = _parity_gates()
    refusal = _refusal_record()

    base = _run_isolated(base_total)
    big = _run_isolated(big_total)
    rss_ratio = round(big["peak_rss_kb"] / max(1, base["peak_rss_kb"]), 3)
    events_per_s = round(big["events_fired"] / max(big["wall_s"], 1e-9), 1)
    throughput_key = "events_per_s_informational" if quick else "events_per_s"

    return {
        "quick": quick,
        "seed": SEED,
        "miners": MINERS,
        "contract_shards": CONTRACT_SHARDS,
        "inject_batch": INJECT_BATCH,
        "inject_interval_s": INJECT_INTERVAL,
        "mempool_limit": MEMPOOL_LIMIT,
        "parity": parity,
        "list_injection_refusal": refusal,
        "runs": {"base": base, "big": big},
        "peak_rss_ratio": rss_ratio,
        "peak_rss_ratio_limit": RSS_RATIO_LIMIT,
        "rss_bounded": rss_ratio < RSS_RATIO_LIMIT,
        throughput_key: events_per_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="10x smaller scales (the CI huge-smoke profile)",
    )
    parser.add_argument(
        "--child",
        type=int,
        metavar="TXS",
        help=argparse.SUPPRESS,  # internal: subprocess-isolated run
    )
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(_child_payload(args.child)))
        return 0

    payload = run_bench(quick=args.quick)
    path = write_bench_record("huge", payload)

    print(f"{'scale':>6} {'txs':>8} {'wall_s':>8} {'events':>10} "
          f"{'confirmed':>9} {'evicted':>8} {'rss_kb':>9}")
    for scale in ("base", "big"):
        run = payload["runs"][scale]
        print(
            f"{scale:>6} {run['total_txs']:>8} {run['wall_s']:>8.2f} "
            f"{run['events_fired']:>10} {run['confirmed']:>9} "
            f"{run['evicted']:>8} {run['peak_rss_kb']:>9}"
        )
    throughput_key = next(k for k in payload if k.startswith("events_per_s"))
    print(
        f"peak RSS ratio (big/base): {payload['peak_rss_ratio']}x "
        f"(limit {RSS_RATIO_LIMIT}x) | {throughput_key}: "
        f"{payload[throughput_key]} | wrote {path}"
    )

    failed = False
    if not payload["parity"]["stream_vs_list"]:
        print("FAIL: generator injection diverged from list injection")
        failed = True
    if not payload["list_injection_refusal"]["refused"]:
        print(
            f"FAIL: materializing {FULL_SCALES[1]} txs was not refused "
            f"(cap {MAX_MATERIALIZED_TXS})"
        )
        failed = True
    if not payload["rss_bounded"]:
        print(
            f"FAIL: peak RSS grew {payload['peak_rss_ratio']}x from base "
            f"to big scale (limit {RSS_RATIO_LIMIT}x)"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
