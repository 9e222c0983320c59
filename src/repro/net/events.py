"""The discrete-event engine.

A classic calendar queue: events carry a firing time and a callback;
:class:`Scheduler` fires them in time order and advances the simulation
clock. Ties break on a monotone sequence number so simultaneous events
fire in scheduling order, keeping runs deterministic. An event, once
scheduled, fires: the protocol never moves a scheduled time, so there
is no cancellation.

**The horizon.** A scheduler may be built with the run's ``horizon``
(a protocol run passes its ``max_duration``; the default is ``inf``).
It holds nothing the run cannot fire: every scheduled event and wave
item still draws its sequence number, so the ones that fire keep their
``(time, sequence)`` order bit for bit, but an event or wave item due
past the horizon (``time > horizon``, the same test as :meth:`run`'s
``time > until`` stop) is dropped there and then, and a wave whose items
are all late pushes no heap entry (:meth:`Scheduler.drop_late_wave`
spares a fan-out even building it). :meth:`Scheduler.run` runs to the
horizon by default and refuses to run past it, so a dropped event can
never have been due.

This is the hot loop of every protocol simulation, so the engine is
built for throughput:

* heap entries are ``(time, sequence, callback, args)`` **tuples** —
  tuple comparison short-circuits on the floats and never allocates,
  and the entry is the whole event, dispatched as ``callback(*args)``,
  so callers schedule bound methods with arguments instead of
  allocating a closure per send;
* ``Scheduler.pending`` is O(1): the sequence numbers drawn minus the
  events fired. Every scheduled event draws one, so it still counts the
  late events the horizon dropped, which never fire;
  ``Scheduler.peak_pending`` is the high-water mark of physical heap
  entries, which the horizon lowers;
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
* a delivery is **one call**: :meth:`Scheduler.run` reads the heap top
  itself and hands a due wave item straight to the wave's
  ``deliver(item)``, with one heap step per delivery.

The recorded trace digests in ``tests/sim/seed_digests.json`` pin the
resulting event order: any change to tie-breaking or sequence
allocation shows up as a digest mismatch.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Callable

import numpy as np

from repro.errors import SimulationError

EventCallback = Callable[..., None]

#: The default event budget of :meth:`Scheduler.run`: a runaway-loop
#: guard that runs meant to fire more events raise explicitly.
MAX_EVENTS = 10_000_000


class DeliveryWave:
    """One heap entry standing in for a whole fan-out of deliveries.

    Carries the per-recipient delivery times sorted ascending, the
    matching pre-allocated sequence numbers, and the recipient items.
    When an item is due, :meth:`Scheduler.run` calls ``deliver(item)``.

    Ordering contract: the wave's heap key is always the ``(time,
    sequence)`` key of its earliest undelivered item, and the sequence
    block is allocated contiguously at push time, so the wave interleaves
    with every other heap entry — ties included — exactly as the
    individual events would have. Each pop delivers one recipient and
    re-keys the wave on the next (``heapreplace``, one sift). A wave's
    heap entry holds ``None`` where an event's holds its args.
    """

    __slots__ = ("times", "seqs", "items", "deliver", "pos")

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


class Scheduler:
    """Owns the clock, the event heap and the horizon, and runs the
    event loop."""

    def __init__(self, horizon: float = math.inf) -> None:
        # ``not x >= 0`` also rejects NaN, which fails every comparison.
        if not horizon >= 0:
            raise SimulationError(f"horizon must be non-negative: {horizon}")
        self._horizon = horizon
        # Entries are (time, sequence, callback, args) or, for a wave,
        # (time, sequence, wave, None): sequence is unique, so tuple
        # comparison never reaches the third field.
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._now = 0.0
        self._events_fired = 0
        #: High-water mark of physical heap entries (a wave counts as 1).
        #: The heap-footprint gauge the scale bench tracks: wave
        #: scheduling and the mining calendar shrink it from O(miners +
        #: in-flight deliveries) to O(shards + in-flight broadcasts).
        self.peak_pending = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        """Sequence numbers drawn minus events fired (a wave counts per
        item). Late events the horizon dropped count too: they never
        fire."""
        return self._next_seq - self._events_fired

    def schedule_at(self, time: float, callback: EventCallback, *args) -> None:
        """Schedule an absolute-time event; it must not be in the past.

        Extra positional ``args`` are passed to ``callback`` when the
        event fires — schedule bound methods directly instead of
        wrapping them in closures. An event due past the horizon draws
        its sequence number and is dropped.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.3f}s: clock is already at {self._now:.3f}s"
            )
        self._push(time, callback, args)

    def schedule_in(self, delay: float, callback: EventCallback, *args) -> None:
        """Schedule an event ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._push(self._now + delay, callback, args)

    def _push(self, time: float, callback: EventCallback, args: tuple) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        if time > self._horizon:
            return
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def drop_late_wave(self, earliest: float, count: int) -> bool:
        """Whether a wave of ``count`` items due no sooner than ``earliest``
        is wholly late; if so, draw its sequence numbers as a wave would."""
        if earliest <= self._horizon:
            return False
        self._next_seq += count
        return True

    def schedule_wave(
        self,
        times: "list[float] | np.ndarray",
        items: list,
        deliver: Callable[[object], None],
    ) -> None:
        """Schedule a fan-out as one self-re-arming heap entry.

        ``times`` are absolute delivery times (one per item, any order);
        ``deliver(item)`` is called when that item is due. Equivalent to
        ``len(times)`` :meth:`schedule_at` calls in item order: sequence
        numbers are allocated contiguously in item order, then the wave
        is sorted into ``(time, sequence)`` delivery order (the sort is
        stable, so equal-time items keep their push order, matching
        per-event tie-breaking bit for bit). The wave then holds only
        the items due at or before the horizon, so a wave whose items
        are all late pushes nothing. An array of ``times`` is cut first.
        """
        n = len(times)
        if n == 0:
            return
        horizon = self._horizon
        if isinstance(times, np.ndarray):
            order = np.flatnonzero(times <= horizon)
            order = order[times[order].argsort(kind="stable")]
            due, order = times[order].tolist(), order.tolist()
            first = due[0] if due else math.inf
        else:
            first, due = min(times), None
        if first < self._now:
            raise SimulationError(
                f"cannot schedule wave at {first:.3f}s: "
                f"clock is already at {self._now:.3f}s"
            )
        seq0 = self._next_seq
        self._next_seq = seq0 + n
        if first > horizon:
            return
        if due is None:
            order = sorted(range(n), key=times.__getitem__)
            due = [times[i] for i in order]
            if due[-1] > horizon:
                held = bisect_right(due, horizon)
                del due[held:], order[held:]
        wave = DeliveryWave(
            due,
            [seq0 + i for i in order],
            [items[i] for i in order],
            deliver,
        )
        heap = self._heap
        heapq.heappush(heap, (due[0], wave.seqs[0], wave, None))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)

    def run(
        self,
        until: float | None = None,
        stop_condition: Callable[[], bool] | None = None,
        max_events: int = MAX_EVENTS,
    ) -> float:
        """Drain the queue; returns the final clock value.

        ``until`` caps simulated time (the clock is advanced to it when
        the queue drains without the stop condition firing). It defaults
        to the horizon, and a run asked to go past the horizon is
        refused, since the events due there were never held;
        ``stop_condition`` is re-evaluated after every event — when it
        fires the clock stays at the stopping event's time, so callers
        can read ``now`` as the actual completion time;
        ``max_events`` is a runaway-loop guard.
        """
        if until is None:
            until = self._horizon
        elif until > self._horizon:
            raise SimulationError(
                f"cannot run until {until:.3f}s: past the horizon "
                f"at {self._horizon:.3f}s"
            )
        heap = self._heap
        pop, replace = heapq.heappop, heapq.heapreplace
        budget = self._events_fired + max_events
        while True:
            if stop_condition is not None and stop_condition():
                return self._now
            if not heap:
                break  # drained
            time, __, target, args = heap[0]
            if time > until:
                self._now = until
                return until
            self._now = time
            if args is None:
                # A wave: release one recipient and re-key on the next.
                pos = target.pos
                item = target.items[pos]
                target.items[pos] = None
                pos += 1
                target.pos = pos
                if pos < len(target.times):
                    replace(heap, (target.times[pos], target.seqs[pos], target, None))
                else:
                    pop(heap)
                target.deliver(item)
            else:
                pop(heap)
                target(*args)
            self._events_fired += 1
            if self._events_fired >= budget:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
        if self._now < until < math.inf:
            self._now = until
        return self._now
