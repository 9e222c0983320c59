"""Deterministic structured tracing.

A :class:`Tracer` collects :class:`TraceRecord` entries from the
instrumented seams of the system (protocol phases, merging/selection
rounds, executor fan-outs, injected faults). The determinism contract:

* a record's **identity** is built only from deterministic coordinates —
  a monotone sequence number, simulated time, phase/shard/actor/epoch
  and the caller's attrs. Same seed ⇒ same record stream ⇒ same
  :meth:`Tracer.digest`;
* wall-clock measurements (task timings, map durations) ride in the
  ``wall`` **sidecar**, which the digest and the identity projection
  exclude — they are allowed to differ between otherwise identical
  runs.

The digest is **rolling** (an incremental SHA-256), so it never needs
the records to still be resident: ``sink=`` mode spills them to a JSONL
file in bounded batches, and APIs that need every record
(:meth:`records_named`, :meth:`to_jsonl`) refuse once records spilled.

Tracing is off by default and must cost near nothing when off: every
instrumentation site guards with a single ``tracer is None`` check (or
one :func:`get_tracer` call per operation, not per inner-loop step).
Two things turn it on: the ``trace=`` hooks on
:class:`~repro.sim.protocol.ProtocolConfig` and
:class:`~repro.sim.campaign.Campaign` (per run), and a
:func:`use_tracer` scope (for everything run inside it).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import time as _walltime
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigError, SimulationError

#: Sink mode keeps at most this many unflushed records resident.
DEFAULT_SINK_BUFFER = 10_000


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace entry.

    ``attrs`` must be JSON-serializable and derived only from seeded
    simulation state; ``wall`` holds wall-clock measurements and is
    excluded from :meth:`identity` (and therefore from trace digests).
    """

    seq: int
    name: str
    time: float | None = None  # simulated (monotonic) time, never wall clock
    phase: str | None = None
    shard: int | None = None
    actor: str | None = None
    epoch: int | None = None
    attrs: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)

    def identity(self) -> dict:
        """The deterministic projection the digest is computed over."""
        payload: dict[str, object] = {"seq": self.seq, "name": self.name}
        for key in ("time", "phase", "shard", "actor", "epoch"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    def to_json(self, include_wall: bool = True) -> str:
        """Canonical compact JSON (sorted keys, no whitespace)."""
        payload = self.identity()
        if include_wall and self.wall:
            payload["wall"] = self.wall
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Tracer:
    """Collects the records of one (or more) runs.

    A record is timed by an explicit ``time=`` on :meth:`event`;
    without one it is untimed (logical ordering by ``seq`` alone — the
    game layers have no clock).

    ``lineage`` opts into the per-transaction lifecycle events
    (``tx.seen`` / ``tx.confirmed`` plus per-block ``tx_idx`` lists)
    that :mod:`repro.observe.analysis` reconstructs causal lineages
    from. It is off by default so ordinary traces — and every recorded
    digest baseline — are unchanged; lineage events refer to
    transactions by their *workload index*, never by id, so two
    same-seed runs in different processes still digest identically.

    ``sink`` switches the tracer to streaming mode: records are spilled
    to the given JSONL path (wall sidecars included) whenever more than
    ``buffer_limit`` are resident, bounding memory for arbitrarily long
    runs. Digests, ``len``, and :meth:`count` are unaffected — they are
    maintained incrementally. Call :meth:`finish_sink` when the run
    ends to flush the tail and close the file.
    """

    def __init__(
        self,
        lineage: bool = False,
        sink: str | pathlib.Path | None = None,
        buffer_limit: int = DEFAULT_SINK_BUFFER,
    ) -> None:
        if buffer_limit <= 0:
            raise ConfigError(f"buffer_limit must be positive: got {buffer_limit}")
        self.records: list[TraceRecord] = []
        self.lineage = bool(lineage)
        self._seq = 0
        # Rolling digest + per-(name, phase) tally: maintained on every
        # emission so no inspection API needs the record list.
        self._hasher = hashlib.sha256()
        self._tally: Counter[tuple[str, str | None]] = Counter()
        self._sink_path = pathlib.Path(sink) if sink is not None else None
        self._sink_handle = None
        self._buffer_limit = int(buffer_limit)
        self._spilled = 0

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def event(
        self,
        name: str,
        *,
        time: float | None = None,
        phase: str | None = None,
        shard: int | None = None,
        actor: str | None = None,
        epoch: int | None = None,
        wall: dict | None = None,
        **attrs: object,
    ) -> TraceRecord:
        """Append one record; returns it (mostly for tests)."""
        record = TraceRecord(
            seq=self._seq,
            name=name,
            time=time,
            phase=phase,
            shard=shard,
            actor=actor,
            epoch=epoch,
            attrs=attrs,
            wall=wall or {},
        )
        self._seq += 1
        self._hasher.update(record.to_json(include_wall=False).encode())
        self._hasher.update(b"\n")
        self._tally[(record.name, record.phase)] += 1
        self.records.append(record)
        if (
            self._sink_path is not None
            and len(self.records) >= self._buffer_limit
        ):
            self._flush_to_sink()
        return record

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        phase: str | None = None,
        shard: int | None = None,
        actor: str | None = None,
        epoch: int | None = None,
        **attrs: object,
    ) -> Iterator[None]:
        """Emit ``<name>.begin`` / ``<name>.end`` around a block.

        The end record carries the wall-clock duration in its sidecar;
        the begin/end pair itself (and everything emitted in between)
        stays deterministic.
        """
        self.event(
            f"{name}.begin", phase=phase, shard=shard, actor=actor, epoch=epoch
        )
        started = _walltime.perf_counter()
        try:
            yield
        finally:
            self.event(
                f"{name}.end",
                phase=phase,
                shard=shard,
                actor=actor,
                epoch=epoch,
                wall={"duration_s": round(_walltime.perf_counter() - started, 6)},
                **attrs,
            )

    # ------------------------------------------------------------------
    # the streaming sink
    # ------------------------------------------------------------------
    @property
    def sink_path(self) -> pathlib.Path | None:
        """Where spilled records go, or ``None`` outside sink mode."""
        return self._sink_path

    @property
    def spilled(self) -> int:
        """How many records have left the buffer for the sink file."""
        return self._spilled

    def _flush_to_sink(self) -> None:
        assert self._sink_path is not None
        if self._sink_handle is None:
            self._sink_handle = self._sink_path.open("w", encoding="utf-8")
        handle = self._sink_handle
        for record in self.records:
            handle.write(record.to_json(include_wall=True) + "\n")
        # Flushed per batch: every spilled record is readable mid-run.
        handle.flush()
        self._spilled += len(self.records)
        self.records.clear()

    def finish_sink(self) -> pathlib.Path:
        """Flush the buffered tail and close the sink file.

        Idempotent per run end; returns the sink path. Raises
        :class:`~repro.errors.ConfigError` when the tracer has no sink —
        callers must not silently drop a trace they promised to write.
        """
        if self._sink_path is None:
            raise ConfigError("finish_sink() on a tracer without a sink")
        self._flush_to_sink()
        if self._sink_handle is not None:
            self._sink_handle.close()
            self._sink_handle = None
        return self._sink_path

    def _require_resident(self, api: str) -> None:
        if self._spilled:
            raise SimulationError(
                f"{api} needs every record, but {self._spilled} of "
                f"{len(self)} were already streamed to {self._sink_path} — "
                f"read the sink file instead"
            )

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total records emitted — spilled records still count."""
        return self._spilled + len(self.records)

    def records_named(self, name: str) -> list[TraceRecord]:
        self._require_resident("records_named()")
        return [r for r in self.records if r.name == name]

    def count(self, name: str | None = None, phase: str | None = None) -> int:
        """How many records match the given name and/or phase.

        Served from the incremental tally, so the answer covers spilled
        records too.
        """
        return sum(
            tallied
            for (r_name, r_phase), tallied in self._tally.items()
            if (name is None or r_name == name)
            and (phase is None or r_phase == phase)
        )

    def digest(self) -> str:
        """SHA-256 over the identity projection of every record.

        Rolling: computed from the incremental hasher, byte-identical
        to :func:`repro.observe.export.trace_digest` over the full
        record stream (pinned by test).
        """
        return self._hasher.copy().hexdigest()

    def to_jsonl(self, include_wall: bool = True) -> str:
        self._require_resident("to_jsonl()")
        lines = [r.to_json(include_wall=include_wall) for r in self.records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(
        self, path: str | pathlib.Path, include_wall: bool = True
    ) -> pathlib.Path:
        """Persist the trace as one JSON object per line."""
        self._require_resident("write_jsonl()")
        target = pathlib.Path(path)
        target.write_text(self.to_jsonl(include_wall=include_wall))
        return target


# ----------------------------------------------------------------------
# the process-wide active tracer
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The tracer instrumentation sites should emit into, or ``None``.

    That is the tracer installed via :func:`use_tracer` or by a running
    simulation's ``trace=`` hook; with none installed, tracing is off.
    """
    return _ACTIVE


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope an active-tracer override (nestable; restores the previous)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def resolve_tracer(spec: "Tracer | bool | None") -> Tracer | None:
    """Turn a config-level ``trace=`` value into a tracer (or ``None``).

    ``Tracer`` instances pass through, ``True`` builds a fresh tracer,
    ``False`` forces tracing off, and ``None`` joins the enclosing
    :func:`use_tracer` scope (this is how ``python -m repro run --trace``
    collects whole experiments), else leaves tracing off.
    """
    if isinstance(spec, Tracer):
        return spec
    if spec is True:
        return Tracer()
    if spec is False:
        return None
    if spec is None:
        return _ACTIVE
    raise ConfigError(f"trace must be a Tracer, bool, or None: got {spec!r}")
