"""The correctness gate every benchmark sample passes before it counts.

A sample fails when its run breaks an invariant or differs from the
workload's recorded outcome for the seed:

* conservation: confirmed + evicted + still pooled = injected. Evictions
  are counted per node (``Mempool.evictions``); the workloads that evict
  keep one node per shard, so that count is per transaction;
* cross-shard safety: no transaction id is confirmed on two shards;
* draining: a workload that must drain stops before its horizon with
  every pool empty, and a run-to-horizon workload ends exactly at it;
* the outcome (confirmed, evicted, per-shard confirmed, simulated
  duration, drops, retransmissions) equals the record in
  ``outcomes.json`` when the seed is recorded there, and otherwise the
  first sample of the run. Traced samples are held to the same outcome,
  so the tracer cannot change what the program does.

The outcome is what a user of the program sees, not how it got there:
event counts, stop checks, call counts and cache hits are per-layer
metrics, free to change with any optimisation that keeps the outcome.

``python3 perfbench/record.py`` rewrites ``outcomes.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

RECORD_PATH = Path(__file__).with_name("outcomes.json")


def outcome(result) -> dict:
    """What one finished run produced, as its user sees it."""
    return {
        "confirmed": result.confirmed_count(),
        "evicted": result.evicted,
        "per_shard_confirmed": {
            str(shard): count
            for shard, count in sorted(result.per_shard_confirmed.items())
        },
        "duration": result.duration,
        "drops": result.drops,
        "retransmissions": result.retransmissions,
    }


def invariant_problems(sim, result, inputs) -> list[str]:
    """Every invariant the finished run breaks, one line each."""
    problems = []
    nodes = [sim.node(miner.public) for miner in inputs.miners]
    confirmed = result.confirmed_tx_ids
    pooled = {tx.tx_id for node in nodes for tx in node.mempool.pending()}
    pooled -= confirmed
    accounted = len(confirmed) + result.evicted + len(pooled)
    if accounted != inputs.injected:
        problems.append(
            f"conservation: {len(confirmed)} confirmed + {result.evicted} "
            f"evicted + {len(pooled)} pooled != {inputs.injected} injected"
        )
    by_shard: dict[int, set[str]] = {}
    for node in nodes:
        by_shard.setdefault(node.shard_id, set()).update(
            node.ledger.confirmed_tx_ids()
        )
    per_shard_total = sum(len(ids) for ids in by_shard.values())
    doubles = per_shard_total - len(set().union(*by_shard.values()))
    if doubles:
        problems.append(f"{doubles} tx ids confirmed on more than one shard")
    horizon = inputs.config.max_duration
    if inputs.drains:
        if pooled:
            problems.append(f"{len(pooled)} txs still pooled after the run")
        if result.duration >= horizon:
            problems.append(f"run reached its {horizon} s horizon undrained")
    elif result.duration != horizon:
        problems.append(
            f"run-to-horizon run ended at {result.duration} s, not {horizon} s"
        )
    return problems


def compare(expected: dict | None, got: dict) -> list[str]:
    """How ``got`` differs from the expected outcome, one line per key."""
    if expected is None:
        return []
    return [
        f"{key}: expected {value!r}, got {got.get(key)!r}"
        for key, value in expected.items()
        if got.get(key) != value
    ]


def recorded(workload: str, seed: int) -> dict | None:
    """The recorded outcome of a workload input, if there is one."""
    try:
        records = json.loads(RECORD_PATH.read_text())
    except FileNotFoundError:
        return None
    return records.get(workload, {}).get(str(seed))
