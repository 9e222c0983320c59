"""Tests for repro.net.events — the discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.events import EventQueue, Scheduler


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("first"))
        queue.push(1.0, lambda: fired.append("second"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["first", "second"]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None
        assert len(queue) == 0

    def test_peek_time(self):
        queue = EventQueue()
        queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        early.cancel()
        assert queue.peek_time() == 2.0

    def test_empty_peek(self):
        assert EventQueue().peek_time() is None


class TestScheduler:
    def test_clock_advances(self):
        scheduler = Scheduler()
        times = []
        scheduler.schedule_in(3.0, lambda: times.append(scheduler.now))
        scheduler.schedule_in(1.0, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [1.0, 3.0]

    def test_events_schedule_events(self):
        scheduler = Scheduler()
        fired = []

        def chain(n):
            fired.append(scheduler.now)
            if n > 0:
                scheduler.schedule_in(1.0, lambda: chain(n - 1))

        scheduler.schedule_in(1.0, lambda: chain(2))
        scheduler.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_until_caps_time(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_in(10.0, lambda: fired.append(True))
        final = scheduler.run(until=5.0)
        assert final == 5.0
        assert fired == []
        # The late event survives and can still run later.
        scheduler.run()
        assert fired == [True]

    def test_until_advances_idle_clock(self):
        scheduler = Scheduler()
        assert scheduler.run(until=42.0) == 42.0
        assert scheduler.now == 42.0

    def test_stop_condition(self):
        scheduler = Scheduler()
        count = []
        for i in range(10):
            scheduler.schedule_in(float(i + 1), lambda: count.append(1))
        scheduler.run(stop_condition=lambda: len(count) >= 3)
        assert len(count) == 3

    def test_past_scheduling_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule_in(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule_in(-1.0, lambda: None)

    def test_event_budget_guard(self):
        scheduler = Scheduler()

        def forever():
            scheduler.schedule_in(1.0, forever)

        scheduler.schedule_in(1.0, forever)
        with pytest.raises(SimulationError, match="budget"):
            scheduler.run(max_events=100)

    def test_events_fired_counter(self):
        scheduler = Scheduler()
        scheduler.schedule_in(1.0, lambda: None)
        scheduler.schedule_in(2.0, lambda: None)
        scheduler.run()
        assert scheduler.events_fired == 2

    def test_args_dispatch(self):
        # Bound-method dispatch: extra positional args reach the callback
        # without a closure per event.
        scheduler = Scheduler()
        seen = []
        scheduler.schedule_in(1.0, seen.append, "a")
        scheduler.schedule_at(2.0, seen.append, "b")
        scheduler.run()
        assert seen == ["a", "b"]

    def test_pending_is_live_count(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_in(float(i + 1), lambda: None) for i in range(5)]
        assert scheduler.pending == 5
        events[0].cancel()
        events[0].cancel()  # idempotent: counted once
        assert scheduler.pending == 4

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        event.cancel()  # already popped; the live count must not go stale
        assert len(queue) == 1
        assert queue.pop() is not None
        assert queue.pop() is None

    def test_wave_interleaves_exactly_like_individual_events(self):
        """Differential oracle: a wave-scheduled fan-out fires in the
        same order, at the same times, with the same tie-breaking as the
        equivalent individual schedule_at calls — interleaved with
        ordinary events and other waves."""
        rng = random.Random(42)
        plan = []  # ("event", time) | ("wave", [times])
        for __ in range(40):
            if rng.random() < 0.5:
                plan.append(("event", round(rng.uniform(0.0, 10.0), 2)))
            else:
                n = rng.randint(2, 8)
                plan.append(
                    ("wave", [round(rng.uniform(0.0, 10.0), 2) for _ in range(n)])
                )

        def run_oracle():
            scheduler = Scheduler()
            fired = []
            for idx, (kind, spec) in enumerate(plan):
                times = [spec] if kind == "event" else spec
                for j, time in enumerate(times):
                    scheduler.schedule_at(
                        time, lambda i=idx, k=j: fired.append((scheduler.now, i, k))
                    )
            scheduler.run()
            return fired, scheduler.events_fired

        def run_waved():
            scheduler = Scheduler()
            fired = []

            def emit(item):
                # Read the clock inside the callback (emit runs at pop
                # time, before the scheduler advances ``now``).
                idx, j = item
                return (lambda i=idx, k=j: fired.append((scheduler.now, i, k))), ()

            for idx, (kind, spec) in enumerate(plan):
                if kind == "event":
                    scheduler.schedule_at(
                        spec, lambda i=idx: fired.append((scheduler.now, i, 0))
                    )
                else:
                    scheduler.schedule_wave(
                        list(spec), [(idx, j) for j in range(len(spec))], emit
                    )
            scheduler.run()
            return fired, scheduler.events_fired

        oracle_fired, oracle_count = run_oracle()
        wave_fired, wave_count = run_waved()
        assert wave_fired == oracle_fired
        assert wave_count == oracle_count

    def test_wave_equal_times_fire_in_item_order(self):
        """Zero-jitter broadcasts: every delivery lands at the same
        instant, and the stable sort must preserve item order — plus a
        later wave at the same time fully drains after an earlier one."""
        scheduler = Scheduler()
        fired = []

        def emit(tag):
            return fired.append, (tag,)

        scheduler.schedule_wave([1.0, 1.0, 1.0], ["a0", "a1", "a2"], emit)
        scheduler.schedule_wave([1.0, 1.0], ["b0", "b1"], emit)
        scheduler.run()
        assert fired == ["a0", "a1", "a2", "b0", "b1"]

    def test_wave_counts_toward_pending_and_events_fired(self):
        scheduler = Scheduler()
        scheduler.schedule_wave(
            [1.0, 2.0, 3.0], [0, 1, 2], lambda item: (lambda: None, ())
        )
        assert scheduler.pending == 3
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.events_fired == 3

    def test_wave_emit_is_lazy(self):
        """Messages materialize at delivery, not at scheduling."""
        scheduler = Scheduler()
        emitted = []

        def emit(item):
            emitted.append(item)
            return (lambda: None), ()

        scheduler.schedule_wave([5.0, 1.0, 3.0], ["a", "b", "c"], emit)
        assert emitted == []
        scheduler.run(until=2.0)
        assert emitted == ["b"]  # only the due delivery was materialized
        scheduler.run()
        assert emitted == ["b", "c", "a"]

    def test_wave_is_one_heap_entry(self):
        """The wave's reason to exist: fan-out at O(1) heap footprint."""
        wave_scheduler = Scheduler()
        wave_scheduler.schedule_wave(
            [float(i + 1) for i in range(100)],
            list(range(100)),
            lambda item: (lambda: None, ()),
        )
        assert wave_scheduler.peak_pending == 1

        event_scheduler = Scheduler()
        for i in range(100):
            event_scheduler.schedule_at(float(i + 1), lambda: None)
        assert event_scheduler.peak_pending == 100

    def test_wave_in_past_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule_in(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_wave(
                [2.0, 0.5], [0, 1], lambda item: (lambda: None, ())
            )

    def test_empty_wave_is_noop(self):
        scheduler = Scheduler()
        assert scheduler.schedule_wave([], [], lambda item: (lambda: None, ())) is None
        assert scheduler.pending == 0

    def test_compaction_preserves_order(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(100)]
        for event in events[:80]:
            if event.time % 2 == 0:
                event.cancel()
        for event in events[:80]:
            event.cancel()
        assert queue.compactions >= 1
        times = []
        while (event := queue.pop()) is not None:
            times.append(event.time)
        assert times == sorted(times)
        assert times == [float(i) for i in range(80, 100)]
