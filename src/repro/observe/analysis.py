"""Trace analytics: profiles, per-transaction lineage, and trace diffs.

PR 3 made traces a deterministic *output*; this module makes them
*queryable*. Three capabilities, all operating on the plain-dict
payloads of an exported JSONL trace (or live :class:`TraceRecord`
streams — :func:`as_payloads` normalizes either):

* **phase profile** — where a run spends itself: per-phase record
  counts, the simulated-time window each phase was active in, and the
  wall-clock sidecar seconds attributed to it (``wall.duration_s`` on
  span ends, executor map timings). Deterministic sim-time and
  measured wall time stay separate columns, never mixed.
* **causal lineage** — per-transaction lifecycles reconstructed from
  the lineage event contract (``workload.inject`` → ``tx.seen`` →
  ``block.forged[tx_idx]`` → ``tx.confirmed``), yielding the
  intra-shard end-to-end confirmation latency distributions
  (p50/p95/p99) the reproduction exists to measure (Sec. IV-B).
  Lineage events are opt-in (``Tracer(lineage=True)``) and refer to
  transactions by workload index, so digests stay process-portable.
* **trace diff** — the debugging entry point for digest-parity
  failures: locate the *first* record whose deterministic identity
  diverges between two traces and render a windowed context report,
  instead of the all-or-nothing digest compare. Wall-sidecar-only
  differences are counted but explicitly not divergence.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError
from repro.observe.export import read_jsonl
from repro.observe.metrics import Histogram

#: Identity keys, in render order (attrs last; wall never participates).
_IDENTITY_KEYS = ("seq", "name", "time", "phase", "shard", "actor", "epoch")


def as_payloads(source) -> list[dict]:
    """Normalize a trace source into a list of payload dicts.

    Accepts a JSONL path, a :class:`~repro.observe.Tracer`, an iterable
    of :class:`~repro.observe.TraceRecord`, or an already-parsed list of
    dicts. Wall sidecars are preserved (the profile wants them; the
    diff ignores them).
    """
    if isinstance(source, (str, pathlib.Path)):
        return read_jsonl(source)
    records = getattr(source, "records", source)
    payloads: list[dict] = []
    for record in records:
        if isinstance(record, dict):
            payloads.append(record)
        else:
            payload = record.identity()
            if record.wall:
                payload["wall"] = record.wall
            payloads.append(payload)
    return payloads


def identity_of(payload: dict) -> dict:
    """The deterministic projection of one payload (wall stripped)."""
    return {key: value for key, value in payload.items() if key != "wall"}


# ----------------------------------------------------------------------
# load-imbalance indices
# ----------------------------------------------------------------------
def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative load distribution.

    0.0 is perfectly balanced (every shard carries the same load), 1.0
    is maximally concentrated. Computed with the exact mean-absolute-
    difference formula over the sorted values; an empty or all-zero
    distribution is balanced by definition.
    """
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    total = sum(ordered)
    if n == 0 or total == 0.0:
        return 0.0
    if any(v < 0 for v in ordered):
        raise ConfigError("gini requires non-negative values")
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(ordered))
    return weighted / (n * total)


def imbalance_indices(values: Iterable[float]) -> dict[str, float]:
    """Max/mean ratio and Gini coefficient of a per-shard load column.

    ``max_over_mean`` is 1.0 when balanced and → n when one shard
    carries everything; together with :func:`gini` these are the
    hotspot signals a dynamic re-sharding policy would act on.
    """
    data = [float(v) for v in values]
    mean = sum(data) / len(data) if data else 0.0
    max_over_mean = (max(data) / mean) if mean > 0 else 0.0
    return {
        "shards": float(len(data)),
        "mean": mean,
        "max": max(data) if data else 0.0,
        "max_over_mean": max_over_mean,
        "gini": gini(data),
    }


# ----------------------------------------------------------------------
# phase profile
# ----------------------------------------------------------------------
@dataclass
class PhaseProfile:
    """Aggregate of every record carrying one ``phase`` tag."""

    phase: str
    records: int = 0
    sim_start: float | None = None
    sim_end: float | None = None
    wall_s: float = 0.0

    @property
    def sim_span(self) -> float:
        """Simulated seconds between the phase's first and last record."""
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start


def build_phase_profiles(payloads: Iterable[dict]) -> list[PhaseProfile]:
    """Per-phase attribution, phases in first-appearance order."""
    profiles: dict[str, PhaseProfile] = {}
    for payload in payloads:
        phase = payload.get("phase") or "-"
        profile = profiles.get(phase)
        if profile is None:
            profile = profiles[phase] = PhaseProfile(phase=phase)
        profile.records += 1
        time = payload.get("time")
        if time is not None:
            if profile.sim_start is None or time < profile.sim_start:
                profile.sim_start = time
            if profile.sim_end is None or time > profile.sim_end:
                profile.sim_end = time
        wall = payload.get("wall")
        if wall:
            duration = wall.get("duration_s")
            if isinstance(duration, (int, float)):
                profile.wall_s += duration
    return list(profiles.values())


# ----------------------------------------------------------------------
# causal lineage
# ----------------------------------------------------------------------
@dataclass
class TxLineage:
    """One transaction's reconstructed lifecycle (times are sim-time)."""

    tx: int
    injected_at: float | None = None
    seen_at: float | None = None
    seen_shard: int | None = None
    seen_by: str | None = None
    included_at: float | None = None
    included_height: int | None = None
    included_shard: int | None = None
    included_by: str | None = None
    confirmed_at: float | None = None
    confirmed_shard: int | None = None
    # Adversarial edges: how often a confirmed transaction was reorged
    # out of every node's canonical view (``tx.reverted`` events), and
    # when that last happened. Zero/None on attack-free lineages.
    reverted_count: int = 0
    last_reverted_at: float | None = None

    @property
    def confirmed(self) -> bool:
        return self.confirmed_at is not None

    @property
    def reverted(self) -> bool:
        return self.reverted_count > 0

    @property
    def latency(self) -> float | None:
        """Injection → confirmation, the paper's end-to-end quantity."""
        if self.confirmed_at is None or self.injected_at is None:
            return None
        return self.confirmed_at - self.injected_at

    def phase_times(self) -> dict[str, float]:
        """Per-phase sim-time attribution of a confirmed lifecycle.

        ``gossip`` = injection → first pooled anywhere; ``queue`` =
        pooled → first block inclusion; ``confirm`` = inclusion →
        canonical confirmation. Phases whose endpoints are missing
        (e.g. a lineage truncated by ``max_duration``) are omitted.
        """
        spans: dict[str, float] = {}
        if self.injected_at is not None and self.seen_at is not None:
            spans["gossip"] = self.seen_at - self.injected_at
        if self.seen_at is not None and self.included_at is not None:
            spans["queue"] = self.included_at - self.seen_at
        if self.included_at is not None and self.confirmed_at is not None:
            spans["confirm"] = self.confirmed_at - self.included_at
        return spans


def build_lineages(payloads: Iterable[dict]) -> dict[int, TxLineage]:
    """Reconstruct per-transaction lifecycles from lineage events.

    Returns a lineage for every transaction the trace knows about —
    the ``workload.inject`` record's ``txs`` count seeds the universe,
    so transactions that never gossiped or confirmed still appear (as
    pending lineages). A transaction included in several competing
    blocks keeps its *first* inclusion, which is the deterministic one.
    """
    lineages: dict[int, TxLineage] = {}

    def lineage(tx: int) -> TxLineage:
        entry = lineages.get(tx)
        if entry is None:
            entry = lineages[tx] = TxLineage(tx=tx)
        return entry

    inject_time: float | None = None
    for payload in payloads:
        name = payload.get("name")
        attrs = payload.get("attrs") or {}
        if name == "workload.inject":
            inject_time = payload.get("time") or 0.0
            for tx in range(attrs.get("txs", 0)):
                lineage(tx)
        elif name == "tx.seen":
            entry = lineage(attrs["tx"])
            if entry.seen_at is None:
                entry.seen_at = payload.get("time")
                entry.seen_shard = payload.get("shard")
                entry.seen_by = payload.get("actor")
        elif name == "block.forged":
            for tx in attrs.get("tx_idx", ()):
                entry = lineage(tx)
                if entry.included_at is None:
                    entry.included_at = payload.get("time")
                    entry.included_height = attrs.get("height")
                    entry.included_shard = payload.get("shard")
                    entry.included_by = payload.get("actor")
        elif name == "tx.confirmed":
            entry = lineage(attrs["tx"])
            if entry.confirmed_at is None:
                entry.confirmed_at = payload.get("time")
                entry.confirmed_shard = payload.get("shard")
        elif name == "tx.reverted":
            entry = lineage(attrs["tx"])
            entry.reverted_count += 1
            entry.last_reverted_at = payload.get("time")
    if inject_time is not None:
        for entry in lineages.values():
            entry.injected_at = inject_time
    return lineages


def shard_latency_histograms(
    lineages: dict[int, TxLineage],
) -> dict[int, Histogram]:
    """End-to-end confirmation latency per shard, over confirmed txs."""
    by_shard: dict[int, Histogram] = {}
    for tx in sorted(lineages):
        entry = lineages[tx]
        latency = entry.latency
        if latency is None:
            continue
        shard = entry.confirmed_shard if entry.confirmed_shard is not None else -1
        hist = by_shard.get(shard)
        if hist is None:
            hist = by_shard[shard] = Histogram(f"latency.shard{shard}")
        hist.observe(latency)
    return by_shard


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_time(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def render_profile(payloads: list[dict], title: str = "trace") -> str:
    """The ``trace profile`` report: phases, lineage latencies, pendings."""
    lines = [f"[{title}] {len(payloads)} records"]
    if not payloads:
        lines.append("  (empty trace)")
        return "\n".join(lines)

    lines.append("per-phase attribution (sim-time window vs. wall sidecar):")
    profiles = build_phase_profiles(payloads)
    width = max(len(p.phase) for p in profiles)
    lines.append(
        f"  {'phase'.ljust(width)}  records  sim_start  sim_end  wall_s"
    )
    for p in profiles:
        lines.append(
            f"  {p.phase.ljust(width)}  {p.records:7d}  "
            f"{_fmt_time(p.sim_start):>9}  {_fmt_time(p.sim_end):>7}  "
            f"{p.wall_s:6.3f}"
        )

    lineages = build_lineages(payloads)
    if not lineages:
        lines.append("lineage: no lineage events in this trace "
                     "(record it with lineage enabled for per-tx analysis)")
        return "\n".join(lines)

    confirmed = [e for e in lineages.values() if e.confirmed]
    pending = [e for e in lineages.values() if not e.confirmed]
    lines.append(
        f"transaction lineage: {len(lineages)} tracked, "
        f"{len(confirmed)} confirmed, {len(pending)} never confirmed"
    )
    by_shard = shard_latency_histograms(lineages)
    if by_shard:
        lines.append(
            "per-shard end-to-end confirmation latency (sim seconds):"
        )
        lines.append("  shard      n      p50      p95      p99      max")
        for shard in sorted(by_shard):
            hist = by_shard[shard]
            pct = hist.percentiles((50.0, 95.0, 99.0))
            lines.append(
                f"  {shard:5d}  {hist.count:5d}  {pct[50.0]:7.1f}  "
                f"{pct[95.0]:7.1f}  {pct[99.0]:7.1f}  {hist.maximum:7.1f}"
            )
    # Mean per-phase sim-time attribution across confirmed lifecycles.
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for entry in confirmed:
        for phase, span in entry.phase_times().items():
            totals[phase] = totals.get(phase, 0.0) + span
            counts[phase] = counts.get(phase, 0) + 1
    if totals:
        lines.append("mean per-phase lifecycle attribution (sim seconds):")
        for phase in ("gossip", "queue", "confirm"):
            if phase in totals:
                lines.append(
                    f"  {phase:7s}  {totals[phase] / counts[phase]:8.2f}"
                )
    if pending:
        shown = ", ".join(str(e.tx) for e in sorted(
            pending, key=lambda e: e.tx)[:10])
        suffix = ", …" if len(pending) > 10 else ""
        lines.append(f"never confirmed: tx [{shown}{suffix}]")
    reverted = [e for e in lineages.values() if e.reverted]
    if reverted:
        events = sum(e.reverted_count for e in reverted)
        lines.append(
            f"reverted: {len(reverted)} txs reorged out of every "
            f"canonical view ({events} reversion events) — "
            "adversarial forks in this trace"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace diff
# ----------------------------------------------------------------------
@dataclass
class TraceDiff:
    """Outcome of comparing two traces' deterministic projections."""

    left_len: int
    right_len: int
    #: Index of the first record whose identity diverges, or None.
    index: int | None = None
    #: Identity keys that differ at ``index`` (or ["<missing>"]).
    fields: list[str] = field(default_factory=list)
    #: How many aligned records differed only in their wall sidecars.
    wall_only: int = 0

    @property
    def divergent(self) -> bool:
        return self.index is not None


def diff_traces(left: list[dict], right: list[dict]) -> TraceDiff:
    """First deterministic divergence between two payload streams.

    Compares identity projections record by record (wall sidecars
    excluded); a length mismatch diverges at the shorter stream's end.
    """
    wall_only = 0
    for index, (a, b) in enumerate(zip(left, right)):
        id_a, id_b = identity_of(a), identity_of(b)
        if id_a != id_b:
            fields = sorted(
                key
                for key in set(id_a) | set(id_b)
                if id_a.get(key) != id_b.get(key)
            )
            return TraceDiff(
                left_len=len(left),
                right_len=len(right),
                index=index,
                fields=fields,
                wall_only=wall_only,
            )
        if a.get("wall") != b.get("wall"):
            wall_only += 1
    if len(left) != len(right):
        return TraceDiff(
            left_len=len(left),
            right_len=len(right),
            index=min(len(left), len(right)),
            fields=["<missing record>"],
            wall_only=wall_only,
        )
    return TraceDiff(
        left_len=len(left), right_len=len(right), wall_only=wall_only
    )


def _render_payload(payload: dict | None) -> str:
    if payload is None:
        return "<absent>"
    identity = identity_of(payload)
    parts = [f"{key}={identity[key]!r}" for key in _IDENTITY_KEYS
             if key in identity]
    if identity.get("attrs"):
        parts.append(f"attrs={identity['attrs']!r}")
    return " ".join(parts)


def render_diff(
    diff: TraceDiff,
    left: list[dict],
    right: list[dict],
    names: tuple[str, str] = ("left", "right"),
    window: int = 3,
) -> str:
    """Human-readable diff report with ±``window`` records of context."""
    lines = [
        f"comparing {names[0]} ({diff.left_len} records) "
        f"vs {names[1]} ({diff.right_len} records)"
    ]
    if not diff.divergent:
        lines.append("no deterministic divergence")
        if diff.wall_only:
            lines.append(
                f"({diff.wall_only} records differ only in wall-clock "
                "sidecars, which are excluded from trace identity)"
            )
        return "\n".join(lines)
    index = diff.index
    lines.append(
        f"first deterministic divergence at record {index} "
        f"(fields: {', '.join(diff.fields)})"
    )
    start = max(0, index - window)
    stop = index + window + 1
    for label, payloads in zip(names, (left, right)):
        lines.append(f"--- {label} [{start}:{min(stop, len(payloads))}]")
        for i in range(start, min(stop, len(payloads))):
            marker = ">>" if i == index else "  "
            lines.append(f" {marker} [{i}] {_render_payload(payloads[i])}")
        if index >= len(payloads):
            lines.append(f" >> [{index}] <absent>")
    return "\n".join(lines)
