"""The run report: one schema and one renderer for what a run says.

A :class:`RunReport` is built from a finished run (its tracer plus the
:class:`~repro.observe.telemetry.ShardStats` that
``ProtocolSimulation.shard_stats()`` folds from it) or from a
JSONL trace, saved as JSON and read back. Each section has exactly one
source and is left out when that source is absent:

* **header** — title, record count and trace digest;
* **phases** — per phase: records, the sim-time window and the wall
  seconds of ``duration_s`` sidecars (never mixed with sim time);
* **latency** — the lineage fold: tracked/confirmed/never-confirmed
  counts, per-shard end-to-end confirmation latency (Sec. IV-B,
  Fig. 3h), the mean gossip/queue/confirm split and reverted txs;
* **shards** — :meth:`ShardStats.as_dict` (Fig. 3b/c loads, the
  cross-shard traffic matrix, imbalance indices);
* **metrics** — the counters, gauges and histograms of :data:`METRICS`,
  folded from the records;
* **caches** — :func:`~repro.runtime.cache.named_cache_stats`.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError
from repro.observe.analysis import (
    LINEAGE_EVENTS,
    as_payloads,
    build_lineages,
    shard_latency_histograms,
)
from repro.observe.export import digest_of_jsonl, iter_jsonl
from repro.observe.metrics import Histogram
from repro.observe.telemetry import ShardLoad, _maxshard_id

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe.telemetry import ShardStats
    from repro.observe.tracer import Tracer

#: The ``"report"`` version key ``as_dict`` writes and ``from_dict`` reads.
REPORT_VERSION = 1

_NUM, _OPT_NUM = (int, float), (int, float, type(None))
_PERCENTILES = ("p50", "p95", "p99", "max")
_LATENCY_COUNTS = (
    "tracked", "confirmed", "never_confirmed", "reverted_txs", "reversion_events"
)

#: Section -> shape. A type (tuple) is a leaf, ``[x]`` a list of ``x``,
#: ``{"*": x}`` maps any key to ``x``; other dicts list required keys.
SCHEMA: dict[str, object] = {
    "records": int,
    "digest": str,
    "phases": [
        {"phase": str, "records": int, "wall_s": _NUM}
        | dict.fromkeys(("sim_start", "sim_end"), _OPT_NUM)
    ],
    "latency": dict.fromkeys(_LATENCY_COUNTS, int)
    | {
        "shards": [{"shard": int, "count": int} | dict.fromkeys(_PERCENTILES, _NUM)],
        "mean_split": {"*": _NUM},
    },
    "shards": {
        "loads": [{field.name: int for field in fields(ShardLoad)}],
        "traffic": {"*": {"*": int}},
        "imbalance": {"*": _NUM},
    },
    "metrics": dict.fromkeys(("counters", "gauges"), {"*": _NUM})
    | {"histograms": {"*": {"*": _NUM}}},
    "caches": {"*": {"*": _NUM}},
}

#: Each report metric: its kind, the record it folds from, and the path
#: of the value in that record (``()`` counts the record). A counter
#: sums its values, a gauge keeps the last and a histogram observes
#: each; a record whose value is missing, non-numeric or false feeds
#: nothing.
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "campaign.confirmed": ("counters", "epoch.result", ("attrs", "confirmed")),
    "campaign.epochs": ("counters", "epoch.result", ()),
    "merging.games": ("counters", "merge.converge", ()),
    "protocol.blocks_empty": ("counters", "block.forged", ("attrs", "empty")),
    "protocol.blocks_forged": ("counters", "block.forged", ()),
    "protocol.leader_fallbacks": ("counters", "leader.timeout", ("attrs", "fallbacks")),
    "protocol.retransmit_sweeps": ("counters", "retransmit.sweep", ()),
    "runtime.maps": ("counters", "executor.map", ()),
    "runtime.tasks": ("counters", "executor.map", ("attrs", "tasks")),
    "selection.deviations": ("counters", "selection.converged", ("attrs", "moves")),
    "protocol.confirmed": ("gauges", "run.complete", ("attrs", "confirmed")),
    "protocol.duration_sim_s": ("gauges", "run.complete", ("time",)),
    "protocol.events_fired": ("gauges", "run.complete", ("wall", "events_fired")),
    "scheduler.peak_pending": ("gauges", "run.complete", ("wall", "peak_pending")),
    "merging.rounds_per_run": ("histograms", "merge.result", ("attrs", "rounds")),
    "merging.slots_to_converge": ("histograms", "merge.converge", ("attrs", "slots")),
    "protocol.block_txs": ("histograms", "block.forged", ("attrs", "txs")),
    "selection.rounds_to_converge": (
        "histograms", "selection.converged", ("attrs", "rounds")
    ),
}
_FOLDS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {}
for _metric, (_kind, _record, _path) in METRICS.items():
    _FOLDS.setdefault(_record, []).append((_metric, _kind, _path))


def _check(value: object, shape: object, where: str) -> None:
    """Raise :class:`SimulationError` naming the first key off ``shape``."""
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise SimulationError(f"{where}: expected a list")
        for index, item in enumerate(value):
            _check(item, shape[0], f"{where}[{index}]")
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise SimulationError(f"{where}: expected an object")
        if "*" in shape:
            shape = dict.fromkeys(value, shape["*"])
        for key, sub in shape.items():
            if key not in value:
                raise SimulationError(f"{where}: missing key {key!r}")
            _check(value[key], sub, f"{where}.{key}")
    elif not isinstance(value, shape):
        raise SimulationError(f"{where}: mistyped value {value!r}")


@dataclass
class RunReport:
    """One run's report; every section is JSON-ready data or ``None``."""

    title: str
    records: int | None = None
    digest: str | None = None
    phases: list[dict] | None = None
    latency: dict | None = None
    shards: dict | None = None
    metrics: dict | None = None
    caches: dict | None = None

    @classmethod
    def from_payloads(
        cls, payloads: Iterable[dict], title: str = "trace"
    ) -> RunReport:
        """The record count, phases, latency and metrics, folded in one pass."""
        phases: dict[str, dict] = {}
        lineage_payloads: list[dict] = []
        folded: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        count = 0
        for count, payload in enumerate(payloads, start=1):
            seq, name = payload.get("seq"), payload.get("name")
            phase, time = payload.get("phase") or "-", payload.get("time")
            if not isinstance(seq, int) or not isinstance(name, str):
                raise SimulationError(f"record {count}: missing or mistyped seq/name")
            if not isinstance(phase, str) or not isinstance(time, _OPT_NUM):
                raise SimulationError(f"record seq {seq}: mistyped phase/time")
            row = phases.get(phase)
            if row is None:
                row = phases[phase] = {"phase": phase, "records": 0, "wall_s": 0.0}
                row["sim_start"] = row["sim_end"] = None
            row["records"] += 1
            if time is not None:
                if row["sim_start"] is None or time < row["sim_start"]:
                    row["sim_start"] = time
                if row["sim_end"] is None or time > row["sim_end"]:
                    row["sim_end"] = time
            wall = payload.get("wall")
            if isinstance(wall, dict) and isinstance(wall.get("duration_s"), _NUM):
                row["wall_s"] += wall["duration_s"]
            if name in LINEAGE_EVENTS:
                lineage_payloads.append(payload)
            for metric, kind, path in _FOLDS.get(name, ()):
                _fold_metric(folded, payload, metric, kind, path)
        histograms = folded["histograms"]
        for metric, hist in histograms.items():
            histograms[metric] = hist.summary()
        metrics = {kind: dict(sorted(table.items())) for kind, table in folded.items()}
        return cls(
            title=title,
            records=count,
            phases=list(phases.values()),
            latency=_latency_section(lineage_payloads),
            metrics=metrics if any(folded.values()) else None,
        )

    @classmethod
    def from_run(
        cls,
        trace: Tracer | None,
        shard_stats: ShardStats | None = None,
        title: str = "run",
        caches: dict[str, dict[str, float | int]] | None = None,
    ) -> RunReport:
        """The report of a finished run (``result.trace``/``sim.shard_stats()``).

        ``caches`` is the ``named_cache_stats()`` snapshot taken as the
        run finished; without one it is taken now, and so also counts
        lookups made since (such as the ``shard_stats()`` fold's).

        Safe in sink mode: spilled records are read back from the sink
        file, so the counts and windows cover the whole run.
        """
        if caches is None:
            # Imported lazily: observe must stay import-cycle-free below runtime.
            from repro.runtime.cache import named_cache_stats

            caches = named_cache_stats()
        if trace is None:
            report = cls(title=title)
        else:
            spilled = iter_jsonl(trace.sink_path) if trace.spilled else ()
            records = itertools.chain(spilled, as_payloads(trace.records))
            report = cls.from_payloads(records, title=title)
            report.digest = trace.digest()
        if shard_stats is not None:
            report.shards = shard_stats.as_dict()
        report.caches = caches or None
        return report

    @classmethod
    def read(cls, path: str | pathlib.Path) -> RunReport:
        """A saved report or a JSONL trace, told apart by content.

        A trace's first line is a whole record; a saved report's is a
        whole object with a ``"report"`` key or, indented, no whole value.
        """
        source = pathlib.Path(path)
        with source.open(encoding="utf-8") as handle:
            first = handle.readline()
        try:
            is_trace = "report" not in json.loads(first)
        except (json.JSONDecodeError, TypeError):  # e.g. an indented report
            is_trace = not first.strip()
        if is_trace:
            digest = digest_of_jsonl(source)  # names any corrupt line
        try:
            if not is_trace:
                return cls.from_dict(json.loads(source.read_text(encoding="utf-8")))
            report = cls.from_payloads(iter_jsonl(source), title=source.name)
        except (SimulationError, json.JSONDecodeError) as exc:
            raise SimulationError(f"{source}: {exc}") from exc
        report.digest = digest
        return report

    def as_dict(self) -> dict[str, object]:
        sections = {k: getattr(self, k) for k in SCHEMA if getattr(self, k) is not None}
        return {"report": REPORT_VERSION, "title": self.title} | sections

    @classmethod
    def from_dict(cls, payload: object) -> RunReport:
        """Rebuild a saved report, naming the first missing or mistyped key."""
        _check(payload, {"report": int, "title": str}, "report")
        if payload["report"] != REPORT_VERSION:
            raise SimulationError(f"unsupported report version {payload['report']}")
        unknown = sorted(set(payload) - set(SCHEMA) - {"report", "title"})
        if unknown:
            raise SimulationError(f"unknown report section {unknown[0]!r}")
        for section in SCHEMA:
            if section in payload:
                _check(payload[section], SCHEMA[section], section)
        return cls(**{k: v for k, v in payload.items() if k != "report"})

    def render(self) -> str:
        header = f"[{self.title}]"
        if self.records is not None:
            header += f" {self.records} records"
        if self.digest is not None:
            header += f", digest {self.digest}"
        lines = [header]
        for value, renderer in (
            (self.phases, _render_phases),
            (self.latency, _render_latency),
            (self.shards, _render_shards),
            (self.metrics, _render_metrics),
            (self.caches, _render_caches),
        ):
            if value is not None:
                lines.extend(renderer(value))
        return "\n".join(lines)


def _fold_metric(
    folded: dict[str, dict], payload: dict, metric: str, kind: str, path: tuple
) -> None:
    """Feed one :data:`METRICS` entry from one record."""
    value: object = payload if path else 1
    for key in path:
        value = value.get(key) if isinstance(value, dict) else None
    if value is False or not isinstance(value, _NUM):
        return
    table = folded[kind]
    if kind == "counters":
        table[metric] = table.get(metric, 0) + value
    elif kind == "gauges":
        table[metric] = value
    else:
        table.setdefault(metric, Histogram(metric)).observe(value)


def _latency_section(payloads: list[dict]) -> dict | None:
    """The lineage fold; ``None`` when no transaction was ever seen."""
    lineages = build_lineages(payloads)
    if not any(e.seen_at is not None or e.confirmed for e in lineages.values()):
        return None
    confirmed = [e for e in lineages.values() if e.confirmed]
    spans: dict[str, list[float]] = {}
    for entry in confirmed:
        for phase, span in entry.phase_times().items():
            spans.setdefault(phase, []).append(span)
    shards = []
    for shard, hist in sorted(shard_latency_histograms(lineages).items()):
        summary = hist.summary()
        shards.append(
            {"shard": shard, "count": hist.count}
            | {key: summary[key] for key in _PERCENTILES}
        )
    reverted = [e.reverted_count for e in lineages.values() if e.reverted]
    return {
        "tracked": len(lineages),
        "confirmed": len(confirmed),
        "never_confirmed": len(lineages) - len(confirmed),
        "shards": shards,
        "mean_split": {phase: sum(v) / len(v) for phase, v in spans.items()},
        "reverted_txs": len(reverted),
        "reversion_events": sum(reverted),
    }


def _shard_tag(shard: int) -> str:
    return "max" if shard == _maxshard_id() else str(shard)


def _table(header: list[str], rows: list[list[object]]) -> list[str]:
    """Indented columns: the first left-aligned, the rest right-aligned."""
    cells = [header] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return [
        "  " + "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        )
        for row in cells
    ]


def _render_phases(phases: list[dict]) -> list[str]:
    rows = [
        [p["phase"], p["records"]]
        + ["-" if t is None else f"{t:.1f}" for t in (p["sim_start"], p["sim_end"])]
        + [f"{p['wall_s']:.3f}"]
        for p in phases
    ]
    header = ["phase", "records", "sim_start", "sim_end", "wall_s"]
    return ["phases (sim-time window vs. wall sidecar):"] + _table(header, rows)


def _render_latency(latency: dict) -> list[str]:
    lines = [
        f"latency: {latency['tracked']} tracked, {latency['confirmed']} "
        f"confirmed, {latency['never_confirmed']} never confirmed"
    ]
    if latency["shards"]:
        lines.append("  per-shard end-to-end confirmation latency (sim seconds):")
        rows = [
            [_shard_tag(s["shard"]), s["count"]] + [f"{s[k]:.1f}" for k in _PERCENTILES]
            for s in latency["shards"]
        ]
        lines += _table(["shard", "n", *_PERCENTILES], rows)
    if latency["mean_split"]:
        split = "  ".join(f"{k} {v:.2f}" for k, v in latency["mean_split"].items())
        lines.append(f"  mean lifecycle split (sim seconds): {split}")
    if latency["reverted_txs"]:
        lines.append(
            f"  reverted: {latency['reverted_txs']} txs reorged out of every "
            f"canonical view ({latency['reversion_events']} reversion events)"
        )
    return lines


def _render_shards(shards: dict) -> list[str]:
    loads, traffic = shards["loads"], shards["traffic"]
    lines = [
        f"shards: {len(loads)} shards, "
        f"{sum(e['blocks_forged'] for e in loads)} blocks, "
        f"{sum(e['txs_confirmed'] for e in loads)} txs confirmed"
    ]
    rows = [
        [_shard_tag(e["shard"]), e["blocks_forged"], e["blocks_empty"]]
        + [f"{100.0 * e['blocks_empty'] / max(e['blocks_forged'], 1):.1f}%"]
        + [e["txs_confirmed"], e["mempool_peak"], e["evictions"]]
        for e in loads
    ]
    header = ["shard", "blocks", "empty", "empty%", "txs_conf", "pool_peak", "evicted"]
    lines += _table(header, rows)
    if traffic:
        ids = {k for row in traffic.values() for k in row} | set(traffic)
        ids = sorted(ids, key=int)
        lines.append(
            "  cross-shard traffic matrix (rows: home shard, "
            "cols: executing shard; col 0 = MaxShard serialization):"
        )
        rows = [[home] + [traffic.get(home, {}).get(k, 0) for k in ids] for home in ids]
        lines += _table(["home\\exec", *ids], rows)
        maxshard = str(_maxshard_id())
        serialized = sum(
            row.get(maxshard, 0) for home, row in traffic.items() if home != maxshard
        )
        routed = sum(sum(row.values()) for row in traffic.values())
        lines.append(f"  routed={routed} maxshard_serialized={serialized}")
    imbalance = shards["imbalance"]
    lines.append(
        "  imbalance over real shards (txs confirmed): "
        f"max/mean={imbalance['max_over_mean']:.3f} gini={imbalance['gini']:.3f}"
    )
    return lines


def _render_metrics(metrics: dict) -> list[str]:
    lines = ["metrics:"]
    for kind in ("counters", "gauges"):
        lines.extend(f"  {name} = {value:g}" for name, value in metrics[kind].items())
    for name, s in metrics["histograms"].items():
        stats = " ".join(f"{k}={s[k]:.3f}" for k in ("mean", "min", *_PERCENTILES))
        lines.append(f"  {name}: n={s['count']} {stats}")
    return lines


def _render_caches(caches: dict) -> list[str]:
    return ["memo caches (process-wide):"] + [
        f"  {name}: hit_rate={stats['hit_rate']:.3f} hits={stats['hits']} "
        f"misses={stats['misses']} entries={stats['entries']} "
        f"instances={stats['instances']}"
        for name, stats in sorted(caches.items())
    ]
