"""Tests for repro.net.events — the discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.net.events import Scheduler


def run_keyed(scheduler: Scheduler, **kwargs) -> list[tuple[float, int]]:
    """Run ``scheduler`` and return the ``(time, sequence)`` heap key of
    every event it fires, read off the heap top at each stop check (the
    check runs once before every event)."""
    keys = []
    heap = scheduler._heap

    def record() -> bool:
        if heap:
            keys.append(heap[0][:2])
        return False

    scheduler.run(stop_condition=record, **kwargs)
    return keys


class TestEventQueue:
    """Queue order, seen through :meth:`Scheduler.run`, its only pop path."""

    def test_pop_in_time_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(2.0, fired.append, "b")
        scheduler.schedule_at(1.0, fired.append, "a")
        scheduler.schedule_at(3.0, fired.append, "c")
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(1.0, fired.append, "first")
        scheduler.schedule_at(1.0, fired.append, "second")
        assert run_keyed(scheduler) == [(1.0, 0), (1.0, 1)]
        assert fired == ["first", "second"]

    def test_peek_time(self):
        # The earliest pending time bounds a capped run.
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(5.0, fired.append, "x")
        assert scheduler.run(until=4.5) == 4.5
        assert fired == []
        assert scheduler.run(until=5.0) == 5.0
        assert fired == ["x"]

    def test_empty_peek(self):
        scheduler = Scheduler()
        assert scheduler.run() == 0.0
        assert scheduler.events_fired == 0


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
        for i in range(5):
            scheduler.schedule_in(float(i + 1), lambda: None)
        scheduler.schedule_wave([1.5, 2.5], ["a", "b"], lambda item: None)
        assert scheduler.pending == 7
        scheduler.run(until=2.0)
        assert scheduler.events_fired == 3
        assert scheduler.pending == 4
        # An event scheduled mid-run counts until it fires.
        scheduler.schedule_in(0.5, lambda: None)
        assert scheduler.pending == 5
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.events_fired == 8

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
            keys = run_keyed(scheduler)
            return fired, keys, scheduler.events_fired

        def run_waved():
            scheduler = Scheduler()
            fired = []

            def deliver(item):
                idx, j = item
                fired.append((scheduler.now, idx, j))

            for idx, (kind, spec) in enumerate(plan):
                if kind == "event":
                    scheduler.schedule_at(
                        spec, lambda i=idx: fired.append((scheduler.now, i, 0))
                    )
                else:
                    scheduler.schedule_wave(
                        list(spec), [(idx, j) for j in range(len(spec))], deliver
                    )
            keys = run_keyed(scheduler)
            return fired, keys, scheduler.events_fired

        oracle_fired, oracle_keys, oracle_count = run_oracle()
        wave_fired, wave_keys, wave_count = run_waved()
        assert wave_fired == oracle_fired
        assert wave_keys == oracle_keys
        assert wave_count == oracle_count == len(oracle_keys)

    def test_wave_equal_times_fire_in_item_order(self):
        """Zero-jitter broadcasts: every delivery lands at the same
        instant, and the stable sort must preserve item order — plus a
        later wave at the same time fully drains after an earlier one."""
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_wave([1.0, 1.0, 1.0], ["a0", "a1", "a2"], fired.append)
        scheduler.schedule_wave([1.0, 1.0], ["b0", "b1"], fired.append)
        assert run_keyed(scheduler) == [(1.0, seq) for seq in range(5)]
        assert fired == ["a0", "a1", "a2", "b0", "b1"]

    def test_wave_counts_toward_pending_and_events_fired(self):
        scheduler = Scheduler()
        scheduler.schedule_wave([1.0, 2.0, 3.0], [0, 1, 2], lambda item: None)
        assert scheduler.pending == 3
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.events_fired == 3

    def test_wave_delivers_only_when_due(self):
        """Messages materialize at delivery, not at scheduling."""
        scheduler = Scheduler()
        delivered = []
        scheduler.schedule_wave([5.0, 1.0, 3.0], ["a", "b", "c"], delivered.append)
        assert delivered == []
        scheduler.run(until=2.0)
        assert delivered == ["b"]  # only the due delivery was made
        scheduler.run()
        assert delivered == ["b", "c", "a"]

    def test_wave_is_one_heap_entry(self):
        """The wave's reason to exist: fan-out at O(1) heap footprint."""
        wave_scheduler = Scheduler()
        wave_scheduler.schedule_wave(
            [float(i + 1) for i in range(100)],
            list(range(100)),
            lambda item: None,
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
            scheduler.schedule_wave([2.0, 0.5], [0, 1], lambda item: None)

    def test_empty_wave_is_noop(self):
        scheduler = Scheduler()
        assert scheduler.schedule_wave([], [], lambda item: None) is None
        assert scheduler.pending == 0
