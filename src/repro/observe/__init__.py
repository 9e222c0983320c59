"""Deterministic tracing and metrics (the observability layer).

The simulation grew retransmission sweeps, leader timeouts, merging
rounds, best-reply iterations, cache hits and executor fan-outs — all
invisible behind final result counters. This package makes that
behavior a first-class, *reproducible* output:

* :class:`Tracer` — structured span/event records keyed by simulated
  time, phase, shard, miner and epoch. Wall-clock measurements live in
  an explicit sidecar excluded from record identity, so the same seed
  yields the same :meth:`Tracer.digest` — a trace is itself a
  regression oracle.
* :class:`MetricsRegistry` — deterministic counters/gauges/histograms
  (blocks forged, rounds to convergence, tasks fanned out).
* :mod:`repro.observe.telemetry` — run heartbeats (events/s, per-shard
  mempool depth, peak RSS), per-shard load accounting with a
  cross-shard traffic matrix and imbalance indices. All wall-clock
  readings stay out of the trace digest, so telemetry on/off never
  changes a recorded baseline.
* :mod:`repro.observe.export` — JSONL export plus a human-readable
  per-phase summary, the sharding-survey-style breakdown (per-phase
  latencies, per-shard timelines) end-to-end counters cannot give.
* :mod:`repro.observe.analysis` — the query layer: per-phase profiles
  (sim-time vs. wall sidecar attribution), per-transaction causal
  lineage with per-shard p50/p95/p99 confirmation latencies, and the
  first-divergence trace diff behind ``python -m repro trace ...``.

Enabling it: set ``REPRO_TRACE=1``, or pass ``trace=`` to
:class:`~repro.sim.protocol.ProtocolConfig` /
:class:`~repro.sim.campaign.Campaign`, or scope any code under
:func:`use_tracer`. Disabled-mode overhead is a pointer check per
instrumentation site (guarded by ``benchmarks/bench_observe.py``).
"""

from __future__ import annotations

from repro.observe.analysis import (
    PhaseProfile,
    TraceDiff,
    TxLineage,
    as_payloads,
    build_lineages,
    build_phase_profiles,
    diff_traces,
    gini,
    imbalance_indices,
    render_diff,
    render_profile,
    shard_latency_histograms,
)
from repro.observe.export import (
    digest_of_jsonl,
    read_jsonl,
    render_trace_summary,
    trace_digest,
    write_jsonl,
)
from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observe.telemetry import (
    HeartbeatSample,
    ShardLoad,
    ShardStats,
    Telemetry,
    build_traffic_matrix,
    get_telemetry,
    peak_rss_kb,
    resolve_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.observe.tracer import (
    TRACE_ENV,
    TraceRecord,
    Tracer,
    get_tracer,
    resolve_tracer,
    set_tracer,
    tracing_enabled,
    use_tracer,
)

__all__ = [
    "TRACE_ENV",
    "Counter",
    "Gauge",
    "HeartbeatSample",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfile",
    "ShardLoad",
    "ShardStats",
    "Telemetry",
    "TraceDiff",
    "TraceRecord",
    "Tracer",
    "TxLineage",
    "as_payloads",
    "build_lineages",
    "build_phase_profiles",
    "build_traffic_matrix",
    "diff_traces",
    "digest_of_jsonl",
    "get_telemetry",
    "get_tracer",
    "gini",
    "imbalance_indices",
    "peak_rss_kb",
    "read_jsonl",
    "render_diff",
    "render_profile",
    "render_trace_summary",
    "resolve_telemetry",
    "resolve_tracer",
    "set_telemetry",
    "set_tracer",
    "shard_latency_histograms",
    "trace_digest",
    "tracing_enabled",
    "use_telemetry",
    "use_tracer",
    "write_jsonl",
]
