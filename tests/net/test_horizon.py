"""The scheduler's horizon: a bounded scheduler fires exactly what an
unbounded one fires when run to the same time, while holding nothing
due past it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.events import Scheduler

#: Delays on a half-second grid, so exact-time ties are common and
#: items land exactly on the horizon.
DELAYS = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5)


@st.composite
def ops(draw, depth: int):
    """One plain event or one wave, each fired item spawning children."""
    kind = draw(st.sampled_from(["event", "wave"]))
    n = 1 if kind == "event" else draw(st.integers(min_value=1, max_value=5))
    delays = draw(st.lists(DELAYS, min_size=n, max_size=n))
    children = [
        draw(st.lists(ops(depth - 1), max_size=2)) if depth > 0 else []
        for __ in range(n)
    ]
    return kind, delays, children


@st.composite
def plans(draw):
    roots = draw(st.lists(ops(2), min_size=1, max_size=6))
    horizon = draw(DELAYS) * 2
    split = draw(st.none() | st.sampled_from([horizon / 2, horizon]))
    return roots, horizon, split


def execute(scheduler: Scheduler, roots, legs) -> list[tuple]:
    """Run a plan in ``legs``, one ``(run keywords, stop time)`` pair per
    ``run`` call; returns the fired log ``(time, sequence, item)``."""
    keys: list[tuple] = []
    items: list[tuple] = []
    heap = scheduler._heap
    bound = [math.inf]

    def record() -> bool:
        # Runs once before every event: the heap top is the next to fire
        # unless it is past this leg's stop time.
        if heap and heap[0][0] <= bound[0]:
            keys.append(heap[0][:2])
        return False

    def spawn(children, path) -> None:
        now = scheduler.now
        for k, (kind, delays, grandchildren) in enumerate(children):
            label = path + (k,)
            if kind == "event":
                scheduler.schedule_in(delays[0], fire, label, grandchildren[0])
            else:
                scheduler.schedule_wave(
                    [now + d for d in delays],
                    [(label + (j,), grandchildren[j]) for j in range(len(delays))],
                    deliver,
                )

    def fire(label, children) -> None:
        items.append(label)
        spawn(children, label)

    def deliver(pair) -> None:
        fire(*pair)

    spawn(roots, ())
    for leg, until in legs:
        bound[0] = until
        scheduler.run(stop_condition=record, **leg)
    assert len(keys) == len(items) == scheduler.events_fired
    return [key + (item,) for key, item in zip(keys, items)]


@settings(max_examples=200, deadline=None)
@given(plans())
def test_bounded_run_fires_what_an_unbounded_run_to_the_horizon_fires(plan):
    roots, horizon, split = plan
    bounded = Scheduler(horizon)
    unbounded = Scheduler()
    legs_bounded = [({}, horizon)]
    legs_unbounded = [({"until": horizon}, horizon)]
    if split is not None:
        legs_bounded.insert(0, ({"until": split}, split))
        legs_unbounded.insert(0, ({"until": split}, split))
    cut = execute(bounded, roots, legs_bounded)
    held = execute(unbounded, roots, legs_unbounded)
    assert cut == held
    assert bounded.events_fired == unbounded.events_fired
    # Every event still draws its sequence number, fired or not.
    assert bounded.pending == unbounded.pending
    assert bounded.now == unbounded.now == horizon
    assert not bounded._heap
    assert bounded.peak_pending <= unbounded.peak_pending


class TestHorizon:
    def test_wholly_late_wave_pushes_nothing(self):
        scheduler = Scheduler(5.0)
        scheduler.schedule_wave([6.0, 5.5], ["a", "b"], lambda item: None)
        assert scheduler._heap == []
        assert scheduler.peak_pending == 0
        assert scheduler.pending == 2

    def test_wave_holds_only_due_items(self):
        scheduler = Scheduler(5.0)
        fired = []
        scheduler.schedule_wave([6.0, 5.0, 1.0], ["late", "edge", "early"],
                                fired.append)
        scheduler.schedule_in(0.5, fired.append, "event")
        (wave,) = [entry[2] for entry in scheduler._heap if entry[3] is None]
        assert wave.items == ["early", "edge"]
        assert wave.seqs == [2, 1]
        scheduler.run()
        assert fired == ["event", "early", "edge"]
        assert scheduler.now == 5.0
        assert scheduler.pending == 1

    def test_late_event_draws_its_sequence_number(self):
        scheduler = Scheduler(5.0)
        scheduler.schedule_at(5.5, lambda: None)
        scheduler.schedule_at(5.0, lambda: None)
        assert [entry[:2] for entry in scheduler._heap] == [(5.0, 1)]
        assert scheduler.pending == 2

    def test_run_past_horizon_refused(self):
        scheduler = Scheduler(5.0)
        with pytest.raises(SimulationError, match="horizon"):
            scheduler.run(until=5.5)
        assert scheduler.run(until=2.0) == 2.0
        assert scheduler.run() == 5.0

    def test_invalid_horizon_refused(self):
        for horizon in (-1.0, math.nan):
            with pytest.raises(SimulationError, match="horizon"):
                Scheduler(horizon)

    def test_unbounded_run_leaves_clock_at_last_event(self):
        scheduler = Scheduler()
        scheduler.schedule_at(3.0, lambda: None)
        assert scheduler.run() == 3.0
