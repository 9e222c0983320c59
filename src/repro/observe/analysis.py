"""Trace analytics: per-transaction lineage and trace diffs.

Both operate on the plain-dict payloads of an exported JSONL trace (or
live :class:`TraceRecord` streams — :func:`as_payloads` normalizes
either); :mod:`repro.observe.report` renders what they compute:

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

from repro.errors import ConfigError, SimulationError
from repro.observe.export import read_jsonl
from repro.observe.metrics import Histogram

#: Identity keys, in render order (attrs last; wall never participates).
_IDENTITY_KEYS = ("seq", "name", "time", "phase", "shard", "actor", "epoch")


def as_payloads(source) -> list[dict]:
    """Normalize a trace source into a list of payload dicts.

    Accepts a JSONL path, a :class:`~repro.observe.Tracer`, an iterable
    of :class:`~repro.observe.TraceRecord`, or an already-parsed list of
    dicts. Wall sidecars are preserved (the run report sums them; the
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


#: The record names :func:`build_lineages` reads.
LINEAGE_EVENTS = frozenset(
    {"workload.inject", "tx.seen", "block.forged", "tx.confirmed", "tx.reverted"}
)


def _tx_index(payload: dict, value: object, key: str) -> int:
    if not isinstance(value, int):
        raise SimulationError(
            f"record seq {payload.get('seq')}: {payload.get('name')} has "
            f"missing or mistyped attrs.{key}"
        )
    return value


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
            for tx in range(_tx_index(payload, attrs.get("txs", 0), "txs")):
                lineage(tx)
        elif name == "tx.seen":
            entry = lineage(_tx_index(payload, attrs.get("tx"), "tx"))
            if entry.seen_at is None:
                entry.seen_at = payload.get("time")
                entry.seen_shard = payload.get("shard")
                entry.seen_by = payload.get("actor")
        elif name == "block.forged":
            for tx in attrs.get("tx_idx", ()):
                entry = lineage(_tx_index(payload, tx, "tx_idx"))
                if entry.included_at is None:
                    entry.included_at = payload.get("time")
                    entry.included_height = attrs.get("height")
                    entry.included_shard = payload.get("shard")
                    entry.included_by = payload.get("actor")
        elif name == "tx.confirmed":
            entry = lineage(_tx_index(payload, attrs.get("tx"), "tx"))
            if entry.confirmed_at is None:
                entry.confirmed_at = payload.get("time")
                entry.confirmed_shard = payload.get("shard")
        elif name == "tx.reverted":
            entry = lineage(_tx_index(payload, attrs.get("tx"), "tx"))
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
