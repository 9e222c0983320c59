"""Proof-of-Work timing model.

In PoW, the time a miner with hash rate ``h`` needs to find a block at
difficulty ``d`` is exponentially distributed with mean ``d / h``. The
paper pins two operating points on c5.large machines:

* difficulty ``0x40000`` — "a miner can pack one block in one minute on
  average" (Sec. VI-B1, VI-C, VI-D);
* difficulty ``0xd79`` — "a miner confirms 76 transactions per second"
  (Sec. VI-B2), i.e. with 10-transaction blocks a 7.6 blocks/s rate.

:class:`PoWParameters` calibrates the reference hash rate from the first
operating point and exposes named constructors for both.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

try:  # pragma: no cover - exercised indirectly via MiningCalendar
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

# Calibration anchor: difficulty 0x40000 == 60 s expected block time on the
# paper's reference machine, giving the reference hash rate below.
_ANCHOR_DIFFICULTY = 0x40000
_ANCHOR_INTERVAL_SECONDS = 60.0
REFERENCE_HASHRATE = _ANCHOR_DIFFICULTY / _ANCHOR_INTERVAL_SECONDS


@dataclass(frozen=True)
class PoWParameters:
    """Difficulty plus reference hash rate; derives expected block times."""

    difficulty: int = _ANCHOR_DIFFICULTY
    reference_hashrate: float = REFERENCE_HASHRATE

    def __post_init__(self) -> None:
        if self.difficulty <= 0:
            raise ValueError("difficulty must be positive")
        if self.reference_hashrate <= 0:
            raise ValueError("reference hash rate must be positive")

    @classmethod
    def one_block_per_minute(cls) -> "PoWParameters":
        """The Sec. VI-B1 / VI-C / VI-D operating point (0x40000)."""
        return cls(difficulty=_ANCHOR_DIFFICULTY)

    @classmethod
    def fast_confirmation(
        cls, tx_per_second: float = 76.0, block_capacity: int = 10
    ) -> "PoWParameters":
        """The Sec. VI-B2 operating point (0xd79): 76 tx/s per miner.

        The difficulty is derived so that one miner's expected block rate
        times the block capacity equals ``tx_per_second``.
        """
        if tx_per_second <= 0:
            raise ValueError("tx_per_second must be positive")
        interval = block_capacity / tx_per_second
        difficulty = max(1, round(REFERENCE_HASHRATE * interval))
        return cls(difficulty=difficulty)

    def expected_interval(self, hashrate_fraction: float = 1.0) -> float:
        """Expected seconds between blocks for a given hash-power share."""
        if hashrate_fraction <= 0:
            raise ValueError("hash-power fraction must be positive")
        return self.difficulty / (self.reference_hashrate * hashrate_fraction)


class MiningProcess:
    """Samples block-discovery times for one miner under PoW.

    The process is memoryless: each call draws a fresh exponential
    inter-block time. A dedicated ``random.Random`` keeps every miner's
    stream independent and the whole simulation reproducible.

    Draws are prefetched in batches of raw uniforms and turned into
    intervals lazily with the exact ``expovariate`` arithmetic
    (``-log(1 - u) / lambd``), so a million-block campaign pays one
    method call per batch instead of per draw while every value — and
    therefore every recorded trace digest — stays bit-identical to
    sequential sampling. Storing uniforms (not intervals) keeps
    :meth:`retarget` exact: the share change applies from the very next
    draw.
    """

    #: Uniform draws fetched per refill of the prefetch buffer.
    PREFETCH = 64

    def __init__(
        self,
        params: PoWParameters,
        hashrate_fraction: float = 1.0,
        seed: int | None = None,
    ) -> None:
        self._params = params
        self._hashrate_fraction = hashrate_fraction
        self._rng = random.Random(seed)
        # Raw uniforms, reversed so pop() consumes them in draw order.
        self._pending: list[float] = []

    @property
    def params(self) -> PoWParameters:
        return self._params

    @property
    def expected_interval(self) -> float:
        return self._params.expected_interval(self._hashrate_fraction)

    def next_block_time(self) -> float:
        """Sample the time (seconds from now) until this miner's next block."""
        if not self._pending:
            draw = self._rng.random
            self._pending = [draw() for __ in range(self.PREFETCH)]
            self._pending.reverse()
        lambd = 1.0 / self.expected_interval
        return -math.log(1.0 - self._pending.pop()) / lambd

    def retarget(self, hashrate_fraction: float) -> None:
        """Change this miner's hash-power share (e.g. after a shard merge)."""
        if hashrate_fraction <= 0:
            raise ValueError("hash-power fraction must be positive")
        self._hashrate_fraction = hashrate_fraction


class MiningCalendar:
    """Per-shard mining schedule: one heap entry for N miners.

    The per-miner scheme keeps one standing scheduler event per miner —
    thousands of miners mean thousands of heap entries churned on every
    forge, retarget or crash. The calendar instead keeps each miner's
    next **absolute** block time in an array and arms a single scheduler
    event for the current winner (the argmin). Updates mutate the array;
    only the winner's event ever touches the heap.

    Equivalence contract (pinned by a differential test): each miner's
    :class:`MiningProcess` draw order is untouched — a draw still
    happens exactly when that miner's previous virtual event fires — so
    the sequence of ``(time, miner)`` firings is identical to the
    per-miner-event scheme whenever no two firings share an exact
    float time (ties have measure zero under exponential sampling; the
    recorded seed-digest baselines verify this empirically).

    The armed event's callback is :meth:`_on_fire` with the winning
    miner's id as its only argument, matching the per-miner scheme's
    event shape. ``fire(miner_id)`` runs the engine's mine step; any
    :meth:`set_next` calls it makes are deferred (array-only) and a
    single re-arm happens after it returns.

    The argmin scan vectorizes over a persistent numpy mirror when numpy
    is available and the shard is large enough; the pure-python
    fallback is bit-identical (both return the *first* minimum).
    """

    #: Below this many miners a python min() beats the numpy round trip.
    _NUMPY_MIN_MINERS = 32

    def __init__(self, scheduler, fire) -> None:
        self._scheduler = scheduler
        self._fire = fire
        self._index: dict[str, int] = {}
        self._miners: list[str] = []
        self._times: list[float] = []
        self._np_times = None  # lazily built persistent mirror
        self._armed = None  # the winner's scheduler Event, if any
        self._armed_slot: int | None = None

    def __len__(self) -> int:
        return len(self._miners)

    def __contains__(self, miner_id: str) -> bool:
        return miner_id in self._index

    def add(self, miner_id: str) -> None:
        """Register a miner with no scheduled block yet."""
        if miner_id in self._index:
            raise ValueError(f"miner {miner_id} already in calendar")
        self._index[miner_id] = len(self._miners)
        self._miners.append(miner_id)
        self._times.append(math.inf)
        self._np_times = None

    def set_next(self, miner_id: str, time: float) -> None:
        """Record a miner's next absolute block time (array-only).

        Deferred by design: callers batch updates (initial draws, the
        redraw inside a fired mine step, retarget/crash sweeps) and the
        single re-arm happens in :meth:`rearm` / :meth:`_on_fire`.
        """
        slot = self._index[miner_id]
        self._times[slot] = time
        if self._np_times is not None:
            self._np_times[slot] = time

    def next_time(self, miner_id: str) -> float:
        """The recorded next block time for one miner (inf = none)."""
        return self._times[self._index[miner_id]]

    def _argmin(self) -> int | None:
        times = self._times
        if not times:
            return None
        if len(times) >= self._NUMPY_MIN_MINERS and _np is not None:
            if self._np_times is None:
                self._np_times = _np.asarray(times, dtype=float)
            return int(self._np_times.argmin())
        return min(range(len(times)), key=times.__getitem__)

    def rearm(self) -> None:
        """(Re)schedule the scheduler event for the current winner.

        Cancelling a stale armed event is cheap in both states it can be
        in: already fired means the event is detached from the queue (a
        flag flip), still pending means one tombstone swept by the
        queue's lazy compaction.
        """
        slot = self._argmin()
        if self._armed is not None:
            if (
                slot == self._armed_slot
                and not self._armed.cancelled
                and self._armed.time == self._times[slot]
            ):
                return  # winner unchanged, event still good
            self._armed.cancel()
            self._armed = None
            self._armed_slot = None
        if slot is None or self._times[slot] == math.inf:
            return
        self._armed = self._scheduler.schedule_at(
            self._times[slot], self._on_fire, self._miners[slot]
        )
        self._armed_slot = slot

    def _on_fire(self, miner_id: str) -> None:
        self._armed = None
        self._armed_slot = None
        self._fire(miner_id)
        self.rearm()
