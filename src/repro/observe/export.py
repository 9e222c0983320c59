"""Trace export: digests, JSONL files, and the human-readable summary.

The digest is the determinism oracle the tests and the CI smoke step
rely on: it hashes every record's identity projection (wall-clock
sidecars excluded), so two same-seed runs must produce the same hex
string byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections import Counter as _TallyCounter
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe.tracer import Tracer, TraceRecord


def trace_digest(records: "Iterable[TraceRecord]") -> str:
    """SHA-256 over the deterministic projection of a record stream."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(record.to_json(include_wall=False).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def write_jsonl(
    records: "Iterable[TraceRecord]",
    path: str | pathlib.Path,
    include_wall: bool = True,
) -> pathlib.Path:
    """One JSON object per line; returns the written path."""
    target = pathlib.Path(path)
    with target.open("w") as handle:
        for record in records:
            handle.write(record.to_json(include_wall=include_wall) + "\n")
    return target


def read_jsonl(path: str | pathlib.Path) -> list[dict]:
    """Parse a trace file back into plain dicts (analysis, CI checks).

    A truncated or otherwise corrupt line raises
    :class:`~repro.errors.SimulationError` naming the 1-based line
    number, so a bad artifact points at itself instead of surfacing as
    a bare ``JSONDecodeError`` (or worse, a crash deep in analysis).
    """
    source = pathlib.Path(path)
    records: list[dict] = []
    for lineno, line in enumerate(source.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"{source}: corrupt JSONL at line {lineno}: {exc.msg}"
            ) from exc
        if not isinstance(payload, dict):
            raise SimulationError(
                f"{source}: corrupt JSONL at line {lineno}: expected an "
                f"object, got {type(payload).__name__}"
            )
        records.append(payload)
    return records


def digest_of_jsonl(path: str | pathlib.Path) -> str:
    """Recompute the wall-excluding digest from an exported trace file.

    Lets the CI smoke step verify determinism from the artifacts alone:
    strip each line's ``wall`` sidecar, re-canonicalize, hash.
    """
    hasher = hashlib.sha256()
    for payload in read_jsonl(path):
        payload.pop("wall", None)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _phase_table(tally: _TallyCounter) -> list[str]:
    if not tally:
        return ["  (no records)"]
    width = max(len(phase) for phase, __ in tally)
    lines = []
    for (phase, name), count in sorted(tally.items()):
        lines.append(f"  {phase.ljust(width)}  {name}: {count}")
    return lines


def _shard_timeline(records: "list[TraceRecord]") -> list[str]:
    """Per-shard confirmation progress from ``block.forged`` records."""
    by_shard: dict[int, list["TraceRecord"]] = {}
    for record in records:
        if record.name == "block.forged" and record.shard is not None:
            by_shard.setdefault(record.shard, []).append(record)
    lines = []
    for shard, blocks in sorted(by_shard.items()):
        last = blocks[-1]
        confirmed = last.attrs.get("confirmed_in_shard", "?")
        empties = sum(1 for b in blocks if b.attrs.get("empty"))
        when = f"{last.time:.1f}s" if last.time is not None else "-"
        lines.append(
            f"  shard {shard}: {len(blocks)} blocks "
            f"({empties} empty), {confirmed} confirmed by {when}"
        )
    return lines


def _eviction_lines(tracer: "Tracer") -> list[str]:
    """Per-shard eviction counts from ``mempool.evictions.shard<k>`` gauges.

    The protocol engines publish these only when at least one mempool
    turned an admission away, so an empty list means no shard evicted.
    """
    prefix = "mempool.evictions.shard"
    gauges = tracer.metrics.snapshot()["gauges"]
    by_shard: list[tuple[int, float]] = []
    for name, value in gauges.items():
        if name.startswith(prefix):
            try:
                shard = int(name[len(prefix):])
            except ValueError:
                continue
            by_shard.append((shard, value))
    return [
        f"  shard {shard}: {int(value)} evicted"
        for shard, value in sorted(by_shard)
        if value
    ]


def render_trace_summary(tracer: "Tracer", title: str = "trace") -> str:
    """An ``experiments.report``-style per-phase breakdown of one trace.

    Safe in sink mode: counts come from the tracer's incremental tally,
    and the record-walking shard timeline degrades to a pointer at the
    sink file once records have been spilled.
    """
    spill = (
        f"spilled to {tracer.sink_path}"
        if tracer.spilled
        else "in-memory (no spill)"
    )
    parts = [
        f"[{title}] {len(tracer)} records, digest {tracer.digest()[:16]}…",
        f"record buffer: {spill}",
        "per-phase record counts:",
        *_phase_table(tracer.phase_name_counts()),
    ]
    if tracer.spilled:
        parts.append(
            f"per-shard confirmation timeline: (records streamed to "
            f"{tracer.sink_path}; inspect the sink file)"
        )
    else:
        timeline = _shard_timeline(tracer.records)
        if timeline:
            parts.append("per-shard confirmation timeline:")
            parts.extend(timeline)
    evictions = _eviction_lines(tracer)
    if evictions:
        parts.append("per-shard mempool evictions:")
        parts.extend(evictions)
    parts.append("metrics:")
    parts.append(tracer.metrics.render())
    cache_lines = _cache_lines()
    if cache_lines:
        parts.append("memo caches (process-wide):")
        parts.extend(cache_lines)
    return "\n".join(parts)


def _cache_lines() -> list[str]:
    # Imported lazily: observe must stay import-cycle-free below runtime.
    from repro.runtime.cache import named_cache_stats

    return [
        f"  {name}: hit_rate={stats['hit_rate']:.3f} "
        f"hits={stats['hits']} misses={stats['misses']} "
        f"entries={stats['entries']} instances={stats['instances']}"
        for name, stats in sorted(named_cache_stats().items())
    ]
