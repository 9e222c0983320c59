"""Scale bench: wave-scheduled broadcasts + per-shard mining calendars.

Two legs:

* **Sweep** — miners × txs grid up to 2048 miners. Per-miner difficulty
  scales linearly with the miner count so the aggregate block rate
  stays constant across the axis: the grid measures how event
  throughput and the physical heap footprint
  (``scheduler.peak_pending``) respond to fan-out, not to a changing
  offered load.
* **Million** — a 10^6-tx streamed campaign over 1024 miners in 64
  shards (subprocess-isolated so ``ru_maxrss`` is the run's own), which
  must complete under the CI job's 4 GiB address-space ceiling. The
  miner epoch is an honest VRF/RandHound assignment whose public
  randomness is searched until the weighted draw leaves no shard
  starving (a zero-miner shard would strand its transactions; a
  1-miner shard turns the drain tail into the whole benchmark) — every
  block still passes the real Sec. III-C membership verifier, which a
  hand-balanced ``shard_of`` would not. The stream reuses a bounded
  sender population per shard so world-state and call-graph footprints
  measure the engine, not an ever-growing address book.

The event order of the wave path is pinned by the recorded ``wave-128``
digest in ``tests/sim/seed_digests.json`` (128 miners, minute-scale
propagation), not by this bench.

``--quick`` (the CI scale-smoke profile) shrinks both legs and records
throughput under an informational key, so a smoke run on a cold shared
runner is never compared against the committed full-scale baseline.
Full mode records ``events_per_s`` (million leg) as the tracked
observatory metric.
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
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters

SEED = 13

#: Sweep leg: fan-out axis at constant aggregate block rate.
SWEEP_MINERS_FULL = (256, 512, 1024, 2048)
SWEEP_MINERS_QUICK = (128, 256)
SWEEP_TXS = 50
SWEEP_SHARDS = 3
SWEEP_HORIZON = 30.0
#: Per-miner expected interval at the smallest sweep point; scaled by
#: miners/SWEEP_BASE_MINERS so the aggregate rate stays ~4.3 blocks/s.
SWEEP_BASE_MINERS = 256
SWEEP_BASE_INTERVAL = 60.0

#: Million leg: streamed campaign topology (full / quick).
MILLION_TXS_FULL = 1_000_000
MILLION_TXS_QUICK = 100_000
MILLION_MINERS_FULL = 1024
MILLION_MINERS_QUICK = 256
#: +MaxShard = 64 shards, ~16 miners each. The ceiling is structural:
#: the Sec. III-B draw lands each miner on one of GROUPS=100 integer
#: RandHound groups, so any epoch spreads miners over at most 100
#: shards — beyond that, shards whose cumulative-fraction interval
#: contains no integer stay empty under *every* randomness and their
#: transactions strand.
MILLION_CONTRACT_SHARDS_FULL = 63
MILLION_CONTRACT_SHARDS_QUICK = 31
#: Large blocks: the dominant per-block cost is the O(N) network-wide
#: broadcast, so fewer/fuller blocks measure the same confirmed work
#: with far fewer deliveries.
MILLION_CAPACITY = 2000
MILLION_INJECT_BATCH = 2500
MILLION_INJECT_INTERVAL = 1.0
#: Must clear the worst-case per-shard backlog (a full slice is
#: total/64 ≈ 15.6k txs). Streamed transactions are never re-offered,
#: and lowest-fee eviction drops the *deepest* pending nonce — one
#: dropped mid-chain nonce permanently strands that sender's
#: successors, so the pool never drains and the run churns empty
#: blocks until the event budget. Block arrivals are Poisson: over a
#: 400 s injection window the smallest (6-miner) shard is near-certain
#: to see a gap long enough to pile thousands of transactions, so the
#: bound exists to cap memory, not to shed load (bench_huge exercises
#: genuine eviction).
MILLION_MEMPOOL_LIMIT = 20_000
#: Target aggregate confirmation rate (tx/s), ~4x the offered 2500/s:
#: per-shard capacity scales with the epoch draw's miner count, so the
#: margin is what keeps the *smallest* shard (MILLION_MIN_SHARD_MINERS
#: vs. a mean of 16) draining faster than its slice fills.
MILLION_TARGET_RATE = 10_000.0
#: Epoch-randomness search: accept the first candidate whose smallest
#: shard has at least this many miners (give up after the trial budget
#: and keep the best seen).
MILLION_MIN_SHARD_MINERS = 6
MILLION_RANDOMNESS_TRIALS = 512
#: Sender-account population per shard slice (bounds per-node state).
MILLION_SENDERS_PER_SHARD = 512
#: A 10^6-tx campaign at 1024 miners legally fires more than the
#: scheduler's 10^7 runaway guard (every block reaches N-1 nodes).
MILLION_MAX_EVENTS = 100_000_000

RSS_LIMIT_KB = 4 * 1024 * 1024  # the CI job's 4 GiB ulimit, in KiB


def _identities(count: int):
    from repro.consensus.miner import MinerIdentity

    return [MinerIdentity.create(f"m{i}") for i in range(count)]


def _interval_params(expected_interval: float) -> "PoWParameters":
    """PoW parameters giving one miner the requested expected interval."""
    return PoWParameters(
        difficulty=max(1, round(expected_interval * REFERENCE_HASHRATE))
    )


def _covered_assignment(identities, fractions):
    """An honest epoch whose weighted draw leaves no shard starving.

    ``assign_miners`` draws each miner's shard independently, so an
    unlucky epoch can leave a shard with zero miners — and a streamed
    campaign with unconfirmable transactions never drains. The epoch
    randomness is public input to the draw, so the bench walks
    deterministic candidates and keeps the first whose smallest shard
    clears :data:`MILLION_MIN_SHARD_MINERS` (best-seen fallback). Every
    block forged under the chosen epoch passes the real Sec. III-C
    membership verifier — unlike a hand-balanced ``shard_of``, which
    the verifier rejects wholesale, collapsing each miner onto a
    private chain. Returns ``(assignment, min_shard_miners)``.
    """
    import bisect

    from repro.core.miner_assignment import (
        GROUPS,
        _cumulative_intervals,
        assign_miners,
    )
    from repro.crypto.randhound import group_draw

    intervals = _cumulative_intervals(fractions)
    bounds = [high for __, __, high in intervals]
    shard_at = [shard for shard, __, __ in intervals]
    best_low, best_randomness = -1, ""
    for trial in range(MILLION_RANDOMNESS_TRIALS):
        randomness = f"bench-scale-{SEED}-r{trial}"
        sizes = dict.fromkeys(fractions, 0)
        for identity in identities:
            r = group_draw(randomness, identity.public, groups=GROUPS)
            sizes[shard_at[bisect.bisect_left(bounds, r)]] += 1
        low = min(sizes.values())
        if low > best_low:
            best_low, best_randomness = low, randomness
        if low >= MILLION_MIN_SHARD_MINERS:
            break
    epoch = assign_miners(
        identities,
        fractions,
        epoch_seed=f"bench-scale-{SEED}",
        randomness=best_randomness,
    )
    return epoch, best_low


# ----------------------------------------------------------------------
# sweep leg
# ----------------------------------------------------------------------
def _horizon_run(miners: int, horizon: float, interval: float):
    """One run-to-horizon broadcast profile; returns (sim, result, wall)."""
    from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
    from repro.workloads.generators import uniform_contract_workload

    workload = uniform_contract_workload(
        total_txs=SWEEP_TXS, contract_shards=SWEEP_SHARDS, seed=SEED
    )
    config = ProtocolConfig(
        seed=SEED,
        trace=False,
        max_duration=horizon,
        run_to_horizon=True,
        pow_params=_interval_params(interval),
    )
    sim = ProtocolSimulation(_identities(miners), workload, config=config)
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return sim, result, wall


def _sweep(points, quick: bool) -> list[dict]:
    rows = []
    for miners in points:
        interval = SWEEP_BASE_INTERVAL * miners / SWEEP_BASE_MINERS
        sim, __, wall = _horizon_run(miners, SWEEP_HORIZON, interval)
        rows.append(
            {
                "miners": miners,
                "txs": SWEEP_TXS,
                "wall_s": round(wall, 4),
                "events_fired": sim.scheduler.events_fired,
                "peak_pending": sim.scheduler.peak_pending,
                # Informational even in full mode: per-point wall times
                # on a grid this small are machine noise; the tracked
                # number lives on the million leg.
                "events_per_s_informational": round(
                    sim.scheduler.events_fired / max(wall, 1e-9), 1
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# million leg (subprocess-isolated for ru_maxrss)
# ----------------------------------------------------------------------
def _child_payload(total: int, miners: int) -> dict:
    """One streamed campaign at scale; runs inside a fresh interpreter."""
    import resource

    from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
    from repro.workloads.generators import streaming_uniform_contract_workload

    contract_shards = (
        MILLION_CONTRACT_SHARDS_FULL
        if miners >= MILLION_MINERS_FULL
        else MILLION_CONTRACT_SHARDS_QUICK
    )
    interval = miners * MILLION_CAPACITY / MILLION_TARGET_RATE
    stream = streaming_uniform_contract_workload(
        total_txs=total,
        contract_shards=contract_shards,
        seed=SEED,
        senders_per_shard=MILLION_SENDERS_PER_SHARD,
        # Paced injection replays stream order: slice-sequential order
        # would pour the whole offered rate into one shard at a time
        # (saturating its mempool and shedding mid-chain nonces, which
        # strands their successors forever); round-robin interleaving
        # keeps per-shard offered load at its per-shard share.
        interleave_shards=True,
    )
    identities = _identities(miners)
    # Same load-proportional fractions the sim derives from a stream's
    # declared per-shard counts (epsilon floor for empty shards).
    declared = max(1, stream.total)
    fractions = {
        shard: max(100.0 * count / declared, 0.01)
        for shard, count in sorted(stream.shard_counts.items())
    }
    assignment, min_shard_miners = _covered_assignment(identities, fractions)
    config = ProtocolConfig(
        seed=SEED,
        trace=False,
        max_duration=5_000_000.0,
        pow_params=_interval_params(interval),
        block_capacity=MILLION_CAPACITY,
        inject_batch=MILLION_INJECT_BATCH,
        inject_interval=MILLION_INJECT_INTERVAL,
        mempool_limit=MILLION_MEMPOOL_LIMIT,
        max_events=MILLION_MAX_EVENTS,
    )
    sim = ProtocolSimulation(
        identities, stream, config=config, assignment=assignment
    )
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return {
        "total_txs": total,
        "miners": miners,
        "shards": contract_shards + 1,
        "min_shard_miners": min_shard_miners,
        "senders_per_shard": MILLION_SENDERS_PER_SHARD,
        "block_capacity": MILLION_CAPACITY,
        "per_miner_interval_s": round(interval, 1),
        "wall_s": round(wall, 4),
        "events_fired": sim.scheduler.events_fired,
        "peak_pending": sim.scheduler.peak_pending,
        "confirmed": result.confirmed_count(),
        "evicted": result.evicted,
        "duration_s": round(result.duration, 2),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _run_isolated(total: int, miners: int) -> dict:
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
         "--child", str(total), "--child-miners", str(miners)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"isolated run of {total} txs / {miners} miners failed "
            f"(exit {proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_bench(quick: bool = False) -> dict:
    sweep = _sweep(SWEEP_MINERS_QUICK if quick else SWEEP_MINERS_FULL, quick)
    million = _run_isolated(
        MILLION_TXS_QUICK if quick else MILLION_TXS_FULL,
        MILLION_MINERS_QUICK if quick else MILLION_MINERS_FULL,
    )
    throughput = round(
        million["events_fired"] / max(million["wall_s"], 1e-9), 1
    )
    return {
        "quick": quick,
        "seed": SEED,
        "sweep": sweep,
        "million": million,
        "rss_limit_kb": RSS_LIMIT_KB,
        "rss_under_limit": million["peak_rss_kb"] < RSS_LIMIT_KB,
        (
            "events_per_s_informational" if quick else "events_per_s"
        ): throughput,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced-fidelity legs (the CI scale-smoke profile)",
    )
    parser.add_argument(
        "--child", type=int, metavar="TXS", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--child-miners", type=int, metavar="N", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(_child_payload(args.child, args.child_miners)))
        return 0

    payload = run_bench(quick=args.quick)
    path = write_bench_record("scale", payload)

    print(f"{'miners':>7} {'wall_s':>8} {'events':>10} {'peak_pending':>12}")
    for row in payload["sweep"]:
        print(
            f"{row['miners']:>7} {row['wall_s']:>8.2f} "
            f"{row['events_fired']:>10} {row['peak_pending']:>12}"
        )
    million = payload["million"]
    print(
        f"million leg: {million['total_txs']} txs / {million['miners']} "
        f"miners in {million['wall_s']:.1f}s, peak RSS "
        f"{million['peak_rss_kb'] // 1024} MiB, confirmed "
        f"{million['confirmed']} | wrote {path}"
    )

    failed = False
    if not payload["rss_under_limit"]:
        print(
            f"FAIL: million leg peak RSS {million['peak_rss_kb']} KiB "
            f"exceeds the {RSS_LIMIT_KB} KiB ceiling"
        )
        failed = True
    if million["confirmed"] != million["total_txs"]:
        # Stranded transactions mean the epoch draw left a shard with
        # no miners — the campaign terminated without doing its work.
        print(
            f"FAIL: only {million['confirmed']} of "
            f"{million['total_txs']} streamed txs confirmed "
            f"(min shard miners: {million['min_shard_miners']})"
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
