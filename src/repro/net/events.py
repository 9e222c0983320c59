"""The discrete-event engine.

A classic calendar queue: events carry a firing time and a callback;
:class:`Scheduler` pops them in time order and advances the simulation
clock. Ties break on a monotone sequence number so simultaneous events
fire in scheduling order, keeping runs deterministic.

This is the hot loop of every protocol simulation, so the engine is
built for throughput:

* heap entries are ``(time, sequence, event)`` **tuples** — tuple
  comparison short-circuits on the floats and never allocates, unlike
  ``@dataclass(order=True)`` whose ``__lt__`` builds two tuples per
  heap sift;
* events are **slotted** records dispatched as ``callback(*args)``, so
  callers schedule bound methods with arguments instead of allocating a
  closure per send;
* the live-event count is maintained **incrementally** (push/pop/cancel
  each adjust an integer), so ``len(queue)`` / ``Scheduler.pending`` is
  O(1) — callers polling it in loops used to be accidentally quadratic;
* cancelled entries are **lazily compacted**: once more than half of a
  non-trivial heap is dead weight the heap is rebuilt in one O(n)
  filter + heapify pass instead of dribbling tombstones through every
  subsequent sift;
* fan-outs are **wave-scheduled**: a broadcast to N recipients — faulty
  or not, the fault layer only filters the recipient list — is one
  self-re-arming :class:`DeliveryWave` heap entry instead of N pushes.
  The wave carries the pre-sampled latency vector sorted into delivery
  order, pre-allocates the same contiguous sequence numbers the N
  individual events would have used, and reinserts itself keyed on the
  next delivery after each pop — so interleaving with every other
  event, including exact-time ties, is bit-identical to N separate
  entries while the standing heap footprint per in-flight broadcast is
  O(1).

The recorded trace digests in ``tests/sim/seed_digests.json`` pin the
resulting event order: any change to tie-breaking or sequence
allocation shows up as a digest mismatch.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError

EventCallback = Callable[..., None]

#: Compaction trigger: heaps smaller than this are never compacted.
_COMPACT_MIN_SIZE = 64
#: Compaction trigger: cancelled fraction of the heap that forces a rebuild.
_COMPACT_FRACTION = 0.5


class Event:
    """A scheduled callback with arguments; a cancellable handle.

    Ordering lives in the queue's ``(time, sequence)`` tuple keys, not
    on the event itself.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        args: tuple = (),
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        Idempotent; the owning queue's live count drops immediately and
        the tombstone is swept out by the next lazy compaction.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancel()

    def fire(self) -> None:
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state})"


class DeliveryWave:
    """One heap entry standing in for a whole fan-out of deliveries.

    Carries the per-recipient delivery times sorted ascending, the
    matching pre-allocated sequence numbers, and the recipient items.
    ``emit(item)`` is called lazily at pop time and must return the
    ``(callback, args)`` pair for that delivery — e.g. the network
    builds the per-recipient ``Message`` only when it is actually due.

    Ordering contract: the wave's heap key is always the ``(time,
    sequence)`` key of its earliest undelivered item, and the sequence
    block is allocated contiguously at push time, so the wave interleaves
    with every other heap entry — ties included — exactly as the
    individual events would have. Each pop delivers one recipient and
    re-keys the wave on the next (``heapreplace``, one sift).

    ``cancelled`` is always False: waves are never cancelled as a unit
    (the fault layer filters recipients before the wave is built and
    at each delivery), which lets the queue's tombstone sweeps treat
    them as ordinary live entries.
    """

    __slots__ = ("times", "seqs", "items", "emit", "pos", "cancelled", "_event")

    def __init__(
        self,
        times: list[float],
        seqs: list[int],
        items: list,
        emit: Callable[[object], tuple[EventCallback, tuple]],
    ) -> None:
        self.times = times
        self.seqs = seqs
        self.items = items
        self.emit = emit
        self.pos = 0
        self.cancelled = False
        # One mutable Event reused for every delivery of this wave: pops
        # are consumed immediately by the run loops and never retained.
        self._event = Event(times[0], seqs[0], _unemitted, (), queue=None)

    def __len__(self) -> int:
        """Undelivered recipients."""
        return len(self.times) - self.pos


def _unemitted() -> None:  # pragma: no cover - placeholder callback
    raise SimulationError("DeliveryWave event fired before emit")


class EventQueue:
    """A heap of pending events with an O(1) live count."""

    def __init__(self) -> None:
        # Entries are (time, sequence, event): sequence is unique, so
        # tuple comparison never reaches the (incomparable) event.
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0
        self._cancelled_in_heap = 0
        self.compactions = 0
        #: High-water mark of *physical* heap entries (a wave counts as
        #: one). The digest-excluded ``wall`` sidecars report this as
        #: ``peak_pending`` — the footprint the wave scheduling shrinks.
        self.peak_entries = 0

    def __len__(self) -> int:
        """Live (non-cancelled) events — maintained incrementally."""
        return self._live

    def push(self, time: float, callback: EventCallback, args: tuple = ()) -> Event:
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        if len(self._heap) > self.peak_entries:
            self.peak_entries = len(self._heap)
        return event

    def push_wave(
        self,
        times: list[float],
        items: list,
        emit: Callable[[object], tuple[EventCallback, tuple]],
    ) -> DeliveryWave | None:
        """Schedule a fan-out as one :class:`DeliveryWave` heap entry.

        ``times[i]`` is the absolute delivery time of ``items[i]``.
        Sequence numbers are allocated contiguously in item order —
        exactly what ``len(times)`` individual pushes would have drawn —
        then the wave is sorted into ``(time, sequence)`` delivery
        order (the sort is stable, so equal-time items keep their push
        order, matching per-event tie-breaking bit for bit).
        """
        n = len(times)
        if n == 0:
            return None
        seq0 = self._next_seq
        self._next_seq = seq0 + n
        order = sorted(range(n), key=times.__getitem__)
        wave = DeliveryWave(
            [times[i] for i in order],
            [seq0 + i for i in order],
            [items[i] for i in order],
            emit,
        )
        times = wave.times
        seqs = wave.seqs
        heapq.heappush(self._heap, (times[0], seqs[0], wave))
        self._live += n
        if len(self._heap) > self.peak_entries:
            self.peak_entries = len(self._heap)
        return wave

    def pop(self) -> Event | None:
        """Pop the earliest live event, or None when drained.

        A :class:`DeliveryWave` at the top releases exactly one delivery
        (materialized via its ``emit`` hook into the wave's reusable
        event record) and re-keys itself on the next one in place.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.__class__ is DeliveryWave:
                wave = event
                pos = wave.pos
                callback, args = wave.emit(wave.items[pos])
                out = wave._event
                out.time = entry[0]
                out.sequence = entry[1]
                out.callback = callback
                out.args = args
                out.cancelled = False
                wave.items[pos] = None  # release the reference early
                pos += 1
                wave.pos = pos
                if pos < len(wave.times):
                    heapq.heapreplace(
                        heap, (wave.times[pos], wave.seqs[pos], wave)
                    )
                else:
                    heapq.heappop(heap)
                self._live -= 1
                return out
            heapq.heappop(heap)
            if not event.cancelled:
                self._live -= 1
                # Detach: a cancel() after the pop must not touch the
                # live/tombstone counters — the event already left.
                event._queue = None
                return event
            self._cancelled_in_heap -= 1
        return None

    def peek_time(self) -> float | None:
        """The firing time of the earliest live event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and self._cancelled_in_heap > len(self._heap) * _COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one filter + heapify pass."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1


class Scheduler:
    """Owns the clock and runs the event loop."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        """Live scheduled events — O(1)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the queue swept out cancelled tombstones."""
        return self._queue.compactions

    @property
    def peak_pending(self) -> int:
        """High-water mark of physical heap entries (a wave counts as 1).

        The heap-footprint gauge the scale bench tracks: wave scheduling
        and the mining calendar shrink this from O(miners + in-flight
        deliveries) to O(shards + in-flight broadcasts).
        """
        return self._queue.peak_entries

    def schedule_at(self, time: float, callback: EventCallback, *args) -> Event:
        """Schedule an absolute-time event; it must not be in the past.

        Extra positional ``args`` are passed to ``callback`` when the
        event fires — schedule bound methods directly instead of
        wrapping them in closures.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.3f}s: clock is already at {self._now:.3f}s"
            )
        return self._queue.push(time, callback, args)

    def schedule_in(self, delay: float, callback: EventCallback, *args) -> Event:
        """Schedule an event ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_wave(
        self,
        times: list[float],
        items: list,
        emit: Callable[[object], tuple[EventCallback, tuple]],
    ) -> DeliveryWave | None:
        """Schedule a fan-out as one self-re-arming heap entry.

        ``times`` are absolute delivery times (one per item, any order);
        ``emit(item)`` materializes the ``(callback, args)`` pair lazily
        when that item's delivery pops. Equivalent to ``len(times)``
        :meth:`schedule_at` calls in item order — same sequence-number
        block, same tie-breaking — at O(1) standing heap footprint.
        """
        if times and min(times) < self._now:
            raise SimulationError(
                f"cannot schedule wave at {min(times):.3f}s: "
                f"clock is already at {self._now:.3f}s"
            )
        return self._queue.push_wave(times, items, emit)

    def run(
        self,
        until: float | None = None,
        stop_condition: Callable[[], bool] | None = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Drain the queue; returns the final clock value.

        ``until`` caps simulated time (the clock is advanced to it when
        the queue drains without the stop condition firing);
        ``stop_condition`` is re-evaluated after every event — when it
        fires the clock stays at the stopping event's time, so callers
        can read ``now`` as the actual completion time;
        ``max_events`` is a runaway-loop guard.
        """
        queue = self._queue
        fired = 0
        while True:
            if stop_condition is not None and stop_condition():
                return self._now
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                return self._now
            event = queue.pop()
            assert event is not None
            self._now = event.time
            event.callback(*event.args)
            self._events_fired += 1
            fired += 1
            if fired >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
        if until is not None and until > self._now:
            self._now = until
        return self._now
