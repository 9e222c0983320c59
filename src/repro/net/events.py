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
  O(1);
* a delivery is **one call**: :meth:`Scheduler.run` pops the heap
  itself and hands a due wave item straight to the wave's
  ``deliver(item)``. Nothing is materialized in between — no
  ``(callback, args)`` pair, no event record — so one delivery costs
  one heap step and one call into the network's per-wave closure.

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state})"


class DeliveryWave:
    """One heap entry standing in for a whole fan-out of deliveries.

    Carries the per-recipient delivery times sorted ascending, the
    matching pre-allocated sequence numbers, and the recipient items.
    When an item is due, :meth:`Scheduler.run` calls ``deliver(item)``
    directly — e.g. the network builds the per-recipient ``Message``
    only then.

    Ordering contract: the wave's heap key is always the ``(time,
    sequence)`` key of its earliest undelivered item, and the sequence
    block is allocated contiguously at push time, so the wave interleaves
    with every other heap entry — ties included — exactly as the
    individual events would have. Each pop delivers one recipient and
    re-keys the wave on the next (``heapreplace``, one sift).
    """

    __slots__ = ("times", "seqs", "items", "deliver", "pos")

    #: Waves are never cancelled as a unit (the fault layer filters
    #: recipients before the wave is built and at each delivery), so the
    #: queue's tombstone sweeps treat them as ordinary live entries.
    cancelled = False

    def __init__(
        self,
        times: list[float],
        seqs: list[int],
        items: list,
        deliver: Callable[[object], None],
    ) -> None:
        self.times = times
        self.seqs = seqs
        self.items = items
        self.deliver = deliver
        self.pos = 0


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
        deliver: Callable[[object], None],
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
            deliver,
        )
        times = wave.times
        seqs = wave.seqs
        heapq.heappush(self._heap, (times[0], seqs[0], wave))
        self._live += n
        if len(self._heap) > self.peak_entries:
            self.peak_entries = len(self._heap)
        return wave

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
        """Drop every tombstone in one filter + heapify pass, in place:
        a running :meth:`Scheduler.run` holds the heap list."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
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
        deliver: Callable[[object], None],
    ) -> DeliveryWave | None:
        """Schedule a fan-out as one self-re-arming heap entry.

        ``times`` are absolute delivery times (one per item, any order);
        ``deliver(item)`` is called when that item is due. Equivalent to
        ``len(times)`` :meth:`schedule_at` calls in item order — same
        sequence-number block, same tie-breaking — at O(1) standing heap
        footprint.
        """
        if times and min(times) < self._now:
            raise SimulationError(
                f"cannot schedule wave at {min(times):.3f}s: "
                f"clock is already at {self._now:.3f}s"
            )
        return self._queue.push_wave(times, items, deliver)

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
        heap = queue._heap
        pop, replace = heapq.heappop, heapq.heapreplace
        budget = self._events_fired + max_events
        while True:
            if stop_condition is not None and stop_condition():
                return self._now
            while heap:
                time, __, entry = heap[0]
                if not entry.cancelled:
                    break
                pop(heap)
                queue._cancelled_in_heap -= 1
            else:
                break  # drained
            if until is not None and time > until:
                self._now = until
                return until
            self._now = time
            queue._live -= 1
            if entry.__class__ is DeliveryWave:
                # Release one recipient and re-key the wave on the next.
                pos = entry.pos
                item = entry.items[pos]
                entry.items[pos] = None
                pos += 1
                entry.pos = pos
                if pos < len(entry.times):
                    replace(heap, (entry.times[pos], entry.seqs[pos], entry))
                else:
                    pop(heap)
                entry.deliver(item)
            else:
                pop(heap)
                # Detach: a cancel() after the pop must not touch the
                # live/tombstone counters — the event already left.
                entry._queue = None
                entry.callback(*entry.args)
            self._events_fired += 1
            if self._events_fired >= budget:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
        if until is not None and until > self._now:
            self._now = until
        return self._now
