"""Deterministic tracing, metrics and telemetry (the observability layer).

The simulation's retransmission sweeps, leader timeouts, merging
rounds, best-reply iterations, cache hits and executor fan-outs are
invisible behind final result counters. This package makes them a
first-class, *reproducible* output:

* :class:`Tracer` — structured span/event records keyed by simulated
  time, phase, shard, miner and epoch; wall-clock measurements ride in
  a sidecar excluded from :meth:`Tracer.digest`, so a trace is itself
  a regression oracle. :mod:`repro.observe.export` writes and digests
  JSONL files; :mod:`repro.observe.analysis` folds per-transaction
  lineages and finds the first divergence between two traces.
* :mod:`repro.observe.telemetry` — digest-neutral heartbeats and
  per-shard load accounting (:class:`ShardStats`).
* :class:`RunReport` — one schema and one renderer over all of the
  above for one run (``python -m repro trace report``); its counters,
  gauges and histograms are a fold over the trace records.

Enabling it: pass ``trace=`` to
:class:`~repro.sim.protocol.ProtocolConfig` /
:class:`~repro.sim.campaign.Campaign`, or scope any code under
:func:`use_tracer`. Disabled-mode overhead is a pointer check per
instrumentation site (guarded by ``benchmarks/bench_observe.py``).
"""

from __future__ import annotations

from repro.observe.analysis import (
    TraceDiff,
    TxLineage,
    as_payloads,
    build_lineages,
    diff_traces,
    gini,
    imbalance_indices,
    render_diff,
    shard_latency_histograms,
)
from repro.observe.export import (
    digest_of_jsonl,
    read_jsonl,
    trace_digest,
)
from repro.observe.metrics import Histogram
from repro.observe.telemetry import (
    HeartbeatSample,
    ShardLoad,
    ShardStats,
    Telemetry,
    get_telemetry,
    resolve_telemetry,
    use_telemetry,
)
from repro.observe.tracer import (
    TraceRecord,
    Tracer,
    get_tracer,
    resolve_tracer,
    use_tracer,
)
from repro.observe.report import RunReport

__all__ = [
    "HeartbeatSample",
    "Histogram",
    "RunReport",
    "ShardLoad",
    "ShardStats",
    "Telemetry",
    "TraceDiff",
    "TraceRecord",
    "Tracer",
    "TxLineage",
    "as_payloads",
    "build_lineages",
    "diff_traces",
    "digest_of_jsonl",
    "get_telemetry",
    "get_tracer",
    "gini",
    "imbalance_indices",
    "read_jsonl",
    "render_diff",
    "resolve_telemetry",
    "resolve_tracer",
    "shard_latency_histograms",
    "trace_digest",
    "use_telemetry",
    "use_tracer",
]
