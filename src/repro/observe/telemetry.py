"""Shard-load telemetry: heartbeats and per-shard stats.

Two measurement surfaces, both digest-neutral by construction:

* **Heartbeats** — periodic snapshots taken *during* a run at fixed
  sim-time intervals. :meth:`Telemetry.arm` is the one way either
  simulator takes them: it starts the wall clock and arms a
  self-re-arming scheduler event. The deterministic fields of a
  :class:`HeartbeatSample` (sim time, injected/confirmed/evicted
  counts, per-shard mempool depths) are pure functions of simulation
  state, so two same-seed runs produce identical sample sequences.
  Every wall-clock or host-dependent quantity (elapsed seconds,
  events/s, ``ru_maxrss``, scheduler ``pending``) lives in the sample's
  ``wall`` sidecar, mirroring the trace-record contract. Heartbeats
  never emit trace events and never consume simulation randomness,
  which is what keeps digests bit-identical with telemetry on or off.
* **Shard load accounting** — :class:`ShardStats` holds per-shard
  blocks forged, empty-block rates, confirmed transactions, mempool
  high-water marks, evictions, and the cross-shard traffic matrix
  (home shard → executed shard; column 0 is the MaxShard serialization
  sink from Sec. III-A). A protocol run folds it from what it keeps
  anyway, after the run (``ProtocolSimulation.shard_stats()``), with
  or without a collector. Imbalance indices (max/mean, Gini) come from
  :mod:`repro.observe.analysis` and are the signals the dynamic
  re-sharding roadmap item needs.

The module mirrors the tracer's scope plumbing: ``use_telemetry``
installs an active collector, ``resolve_telemetry`` is what engines
call with the config knob.
"""

from __future__ import annotations

import contextlib
import sys
import time as _time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, TextIO

from repro.errors import ConfigError
from repro.observe.analysis import imbalance_indices

if TYPE_CHECKING:
    from repro.net.events import Scheduler


def _maxshard_id() -> int:
    """The MaxShard's shard id, imported lazily.

    ``repro.observe`` sits below ``repro.core`` in the import order
    (``runtime.executor`` pulls observe in while ``chain`` is still
    initializing), so the constant cannot be imported at module level
    without closing a cycle.
    """
    from repro.core.shard_formation import MAXSHARD_ID

    return MAXSHARD_ID

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Sim-time seconds between heartbeats when a caller asks for
#: telemetry without choosing an interval (``telemetry=True``).
DEFAULT_HEARTBEAT_INTERVAL = 50.0

#: Least wall seconds between two progress lines of one run.
PROGRESS_PERIOD_S = 1.0


def peak_rss_kb() -> int | None:
    """This process's peak resident set size in KiB (None off-POSIX)."""
    if _resource is None:
        return None
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    rss = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        rss //= 1024
    return int(rss)


# ----------------------------------------------------------------------
# heartbeat samples
# ----------------------------------------------------------------------
@dataclass
class HeartbeatSample:
    """One mid-run snapshot.

    The dataclass fields other than ``wall`` are deterministic
    functions of simulation state; ``wall`` carries everything
    host-dependent (elapsed wall seconds, events/s, scheduler pending
    levels, peak RSS) and must never feed back into the simulation.
    """

    time: float
    injected: int
    confirmed: int
    evicted: int
    pool_depths: dict[int, int]
    wall: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "time": self.time,
            "injected": self.injected,
            "confirmed": self.confirmed,
            "evicted": self.evicted,
            "pool_depths": {str(k): v for k, v in sorted(self.pool_depths.items())},
        }
        if self.wall:
            payload["wall"] = dict(self.wall)
        return payload


class Telemetry:
    """Run-scoped collector of heartbeats.

    ``heartbeat_interval`` is in *simulated* seconds; ``None`` disables
    periodic sampling (a protocol run still takes its end-of-run
    snapshot). ``progress=True`` prints a live heartbeat line to
    ``stream`` (stderr by default), the opt-in campaign monitor for
    10^6-tx streamed runs: a run's first beat, then at most one a wall
    second, so a run that beats thousands of times a second stays
    readable. The samples keep every beat.
    """

    def __init__(
        self,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        progress: bool = False,
        stream: TextIO | None = None,
    ) -> None:
        # ``not x > 0`` also rejects NaN, which fails every comparison.
        if heartbeat_interval is not None and not heartbeat_interval > 0:
            raise ConfigError(
                f"heartbeat_interval must be positive: got {heartbeat_interval}"
            )
        self.heartbeat_interval = heartbeat_interval
        self.progress = progress
        self.stream = stream
        self.samples: list[HeartbeatSample] = []
        self._wall_start: float | None = None
        self._last_wall: float | None = None
        self._last_events: int = 0
        self._printed_wall: float | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Mark the wall-clock origin of the run (engines call this)."""
        self._wall_start = _time.perf_counter()
        self._last_wall = self._wall_start
        self._last_events = 0
        self._printed_wall = None

    def arm(
        self,
        scheduler: "Scheduler",
        state: Callable[[], dict[str, object]],
    ) -> Callable[[], None]:
        """Start the wall clock and arm the run's heartbeat.

        Every ``heartbeat_interval`` simulated seconds a self-re-arming
        event on ``scheduler`` records a sample: ``state()`` gives its
        deterministic fields other than the time, the scheduler its
        wall-sidecar counters. A beat only reads, so the run does what
        it would do without it; a re-arm past the scheduler's horizon
        is dropped there. Returns the sampler, for a final snapshot.
        """
        self.start()

        def sample() -> None:
            self.heartbeat(
                time=scheduler.now,
                events_fired=scheduler.events_fired,
                pending=scheduler.pending,
                peak_pending=scheduler.peak_pending,
                **state(),
            )

        interval = self.heartbeat_interval
        if interval is not None:

            def beat() -> None:
                sample()
                scheduler.schedule_in(interval, beat)

            scheduler.schedule_in(interval, beat)
        return sample

    # -- sampling ------------------------------------------------------
    def heartbeat(
        self,
        *,
        time: float,
        injected: int,
        confirmed: int,
        evicted: int,
        pool_depths: dict[int, int],
        events_fired: int | None = None,
        pending: int | None = None,
        peak_pending: int | None = None,
    ) -> HeartbeatSample:
        """Record one snapshot; deterministic fields only in the body."""
        now = _time.perf_counter()
        wall: dict[str, object] = {}
        if self._wall_start is not None:
            wall["wall_s"] = round(now - self._wall_start, 6)
        if events_fired is not None:
            wall["events_fired"] = events_fired
            if self._last_wall is not None and now > self._last_wall:
                delta = events_fired - self._last_events
                wall["events_per_s"] = round(delta / (now - self._last_wall), 1)
            self._last_events = events_fired
        if pending is not None:
            wall["pending"] = pending
        if peak_pending is not None:
            wall["peak_pending"] = peak_pending
        rss = peak_rss_kb()
        if rss is not None:
            wall["rss_kb"] = rss
        self._last_wall = now
        sample = HeartbeatSample(
            time=time,
            injected=injected,
            confirmed=confirmed,
            evicted=evicted,
            pool_depths=dict(sorted(pool_depths.items())),
            wall=wall,
        )
        self.samples.append(sample)
        if self.progress and (
            self._printed_wall is None
            or now - self._printed_wall >= PROGRESS_PERIOD_S
        ):
            self._printed_wall = now
            self._print_progress(sample)
        return sample

    def _print_progress(self, sample: HeartbeatSample) -> None:
        stream = self.stream if self.stream is not None else sys.stderr
        pool = sum(sample.pool_depths.values())
        parts = [
            f"t={sample.time:10.1f}",
            f"injected={sample.injected}",
            f"confirmed={sample.confirmed}",
        ]
        parts.append(f"evicted={sample.evicted}")
        parts.append(f"pool={pool}")
        eps = sample.wall.get("events_per_s")
        if eps is not None:
            parts.append(f"ev/s={eps:,.0f}")
        rss = sample.wall.get("rss_kb")
        if isinstance(rss, int):
            parts.append(f"rss={rss / 1024:.0f}MiB")
        # One write per line: runs in worker processes share stderr, and
        # print() writes the newline separately, splicing their lines.
        stream.write("[heartbeat] " + " ".join(parts) + "\n")
        stream.flush()


# ----------------------------------------------------------------------
# per-shard load accounting
# ----------------------------------------------------------------------
@dataclass
class ShardLoad:
    """One shard's load summary over a run."""

    shard: int
    blocks_forged: int = 0
    blocks_empty: int = 0
    txs_confirmed: int = 0
    mempool_peak: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass
class ShardStats:
    """Cross-shard load picture for one run.

    ``traffic`` is the cross-shard matrix: ``traffic[home][executed]``
    counts transactions whose *contract* lives on shard ``home`` but
    which the Sec. III-A rule routed to shard ``executed``. The
    diagonal is cleanly sharded traffic; column ``0`` (MaxShard) is
    serialized cross-shard traffic; row ``0`` is direct transfers and
    calls to contracts that never got their own shard.
    """

    loads: dict[int, ShardLoad] = field(default_factory=dict)
    traffic: dict[int, dict[int, int]] = field(default_factory=dict)

    def load(self, shard: int) -> ShardLoad:
        entry = self.loads.get(shard)
        if entry is None:
            entry = self.loads[shard] = ShardLoad(shard=shard)
        return entry

    def record_route(self, home: int, executed: int, count: int = 1) -> None:
        row = self.traffic.setdefault(home, {})
        row[executed] = row.get(executed, 0) + count

    # -- aggregate views ----------------------------------------------
    @property
    def total_blocks(self) -> int:
        return sum(entry.blocks_forged for entry in self.loads.values())

    @property
    def total_confirmed(self) -> int:
        return sum(entry.txs_confirmed for entry in self.loads.values())

    @property
    def maxshard_serialized(self) -> int:
        """Transactions homed on a real shard but executed on MaxShard.

        This is the cross-shard serialization cost the traffic matrix
        exists to expose: each such transaction forces the MaxShard to
        order state touching another shard's contract.
        """
        maxshard = _maxshard_id()
        return sum(
            row.get(maxshard, 0)
            for home, row in self.traffic.items()
            if home != maxshard
        )

    def imbalance(self, key: str = "txs_confirmed") -> dict[str, float]:
        """Max/mean and Gini over a per-shard load column.

        Only real shards participate — the MaxShard is a structural
        serialization point, not a symptom of bad placement.
        """
        maxshard = _maxshard_id()
        values = []
        for shard in sorted(self.loads):
            if shard == maxshard:
                continue
            entry = self.loads[shard]
            value = getattr(entry, key, None)
            if value is None:
                raise ConfigError(f"unknown shard-load column {key!r}")
            values.append(float(value))
        return imbalance_indices(values)

    def as_dict(self) -> dict[str, object]:
        return {
            "loads": [
                self.loads[shard].as_dict() for shard in sorted(self.loads)
            ],
            "traffic": {
                str(home): {
                    str(executed): count
                    for executed, count in sorted(row.items())
                }
                for home, row in sorted(self.traffic.items())
            },
            "imbalance": self.imbalance(),
        }


# ----------------------------------------------------------------------
# scope plumbing (mirrors repro.observe.tracer)
# ----------------------------------------------------------------------
_ACTIVE: list[Telemetry] = []


def get_telemetry() -> Telemetry | None:
    """The active collector installed by :func:`use_telemetry`, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry):
    """Scope a telemetry collector over a block of runs."""
    _ACTIVE.append(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.remove(telemetry)


def resolve_telemetry(
    setting: "Telemetry | bool | None",
) -> Telemetry | None:
    """Interpret an engine config's ``telemetry`` knob.

    An instance is used as-is; ``True`` builds a fresh collector with
    the default heartbeat interval; ``False`` forces telemetry off even
    inside a ``use_telemetry`` scope; ``None`` joins the active scope
    if one exists (so ``run --progress`` can wrap any entry point).
    """
    if isinstance(setting, Telemetry):
        return setting
    if setting is True:
        return Telemetry()
    if setting is False:
        return None
    return get_telemetry()

