#!/usr/bin/env python3
"""Tracing a run: deterministic spans, metrics, and the trace digest.

The observability layer (:mod:`repro.observe`) records what a simulation
*did* — which phases ran, which shards confirmed when, how many rounds
each game needed — without ever letting wall-clock time into a record's
identity. Two same-seed runs therefore produce byte-identical traces,
and the SHA-256 trace digest is a one-line reproducibility check.

This walkthrough:

1. runs a seeded protocol simulation with an explicit :class:`Tracer`
   (the ``trace=`` hook; a :func:`~repro.observe.use_tracer` scope
   would enable the same thing for everything run inside it);
2. prints the run report (:class:`~repro.observe.RunReport`) — the
   digest, per-phase record counts and sim-time windows, and the
   metrics folded from the trace records;
3. reruns with the same seed and verifies the digests match;
4. exports the trace as JSONL and recomputes the digest from the file
   alone, the way the CI trace-smoke step does.

Run:  python examples/tracing.py
Set ``REPRO_TRACE_OUT=/path/trace.jsonl`` to choose the export path
(defaults to a temporary directory).
"""

import os
import pathlib
import tempfile

from repro import ProtocolConfig, ProtocolSimulation, uniform_contract_workload
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.net.network import LatencyModel
from repro.observe import RunReport, Tracer, digest_of_jsonl

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s solo blocks
LOW_LATENCY = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)


def traced_run(seed: int = 7) -> "Tracer":
    miners = [MinerIdentity.create(f"trace-{i}") for i in range(6)]
    txs = uniform_contract_workload(total_txs=30, contract_shards=2, seed=3)
    config = ProtocolConfig(
        pow_params=FAST_POW,
        latency=LOW_LATENCY,
        max_duration=2_000.0,
        seed=seed,
        trace=Tracer(),
    )
    result = ProtocolSimulation(miners, txs, config=config).run()
    return result.trace


def main() -> None:
    print("=== traced protocol run ===")
    trace = traced_run()
    print(RunReport.from_run(trace, title="protocol seed=7").render())

    print()
    print("=== determinism: same seed, same digest ===")
    again = traced_run()
    print(f"run 1 digest: {trace.digest()}")
    print(f"run 2 digest: {again.digest()}")
    print(f"identical:    {trace.digest() == again.digest()}")

    other = traced_run(seed=8)
    print(f"seed=8 digest differs: {other.digest() != trace.digest()}")

    print()
    print("=== JSONL export ===")
    out = os.environ.get("REPRO_TRACE_OUT")
    if out:
        path = trace.write_jsonl(out)
    else:
        path = trace.write_jsonl(
            pathlib.Path(tempfile.mkdtemp(prefix="repro-trace-")) / "trace.jsonl"
        )
    print(f"wrote {len(trace)} records to {path}")
    print(f"digest recomputed from file: {digest_of_jsonl(path)}")
    print(f"matches live digest:         {digest_of_jsonl(path) == trace.digest()}")


if __name__ == "__main__":
    main()
