"""The fault-free fan-out builds only the deliveries that can fire.

Three shortcuts, each checked against the path it replaces:

* ``LatencyModel.sample_array`` draws a latency vector from one
  ``getrandbits`` call and must equal that many ``sample`` calls bit for
  bit, leaving the RNG where they leave it; ``LatencyModel.skip`` must
  leave it there too;
* a wave whose earliest possible delivery is past the horizon only
  advances the latency RNG and the sequence numbers;
* a float64 wave is cut to its due items before it is sorted, and must
  hold the same ``(time, sequence, item)`` lists as the list path.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import events as events_mod
from repro.net import network as network_mod
from repro.net.events import Scheduler
from repro.net.messages import MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import Node

CROSSOVER = network_mod._NUMPY_BATCH_MIN
SIZES = (1, CROSSOVER - 1, CROSSOVER, 4 * CROSSOVER + 3)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Positive jitter; zero jitter draws nothing and has its own test.
MODELS = st.builds(
    LatencyModel,
    base_seconds=st.floats(min_value=0.0, max_value=200.0),
    jitter_seconds=st.floats(min_value=1e-9, max_value=200.0),
)
#: Delivery times on a half-second grid, so ties are common and items
#: land exactly on the horizon.
GRID = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.5)


class Sink(Node):
    def __init__(self, node_id: str) -> None:
        self._id = node_id

    @property
    def node_id(self) -> str:
        return self._id

    def receive(self, message) -> None:
        pass


def make_net(nodes: int, horizon: float, latency: LatencyModel, seed: int = 0):
    scheduler = Scheduler(horizon=horizon)
    network = Network(scheduler, latency=latency, seed=seed)
    for i in range(nodes):
        network.register(Sink(f"n{i}"))
    return scheduler, network


def held(scheduler: Scheduler) -> list[tuple]:
    """Every held ``(time, sequence, item)``: heap entries in key order,
    each wave expanded in its own delivery order."""
    out = []
    for time, seq, target, args in sorted(scheduler._heap, key=lambda e: e[:2]):
        if args is None:
            out += zip(target.times, target.seqs, target.items)
        else:
            out.append((time, seq, args))
    return out


class TestKernel:
    @pytest.mark.parametrize("count", SIZES)
    @settings(max_examples=40, deadline=None)
    @given(model=MODELS, seed=SEEDS)
    def test_kernel_equals_successive_samples(self, count, model, seed):
        a, b = random.Random(seed), random.Random(seed)
        vector = model.sample_array(a, count)
        assert vector.dtype == np.float64
        # Exact float equality, element for element, in draw order.
        assert vector.tolist() == [model.sample(b) for __ in range(count)]
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("count", SIZES)
    @settings(max_examples=20, deadline=None)
    @given(model=MODELS, seed=SEEDS)
    def test_kernel_skip_and_list_leave_one_state(self, count, model, seed):
        kernel, skip, listed = (random.Random(seed) for __ in range(3))
        model.sample_array(kernel, count)
        model.skip(skip, count)
        model.sample_many(listed, count)
        assert kernel.getstate() == skip.getstate() == listed.getstate()

    def test_zero_jitter_draws_nothing(self):
        model = LatencyModel(base_seconds=0.5, jitter_seconds=0.0)
        rng = random.Random(3)
        before = rng.getstate()
        assert model.sample_array(rng, 7).tolist() == [0.5] * 7
        model.skip(rng, 7)
        assert rng.getstate() == before


class TestWhollyLateFanOut:
    @pytest.mark.parametrize("nodes", [3, CROSSOVER + 1, 2 * CROSSOVER])
    def test_builds_nothing(self, nodes, monkeypatch):
        """Only the RNG and the sequence numbers move."""
        latency = LatencyModel(base_seconds=60.0, jitter_seconds=90.0)
        scheduler, network = make_net(nodes, 50.0, latency, seed=4)
        reference = random.Random(4)
        waves = []

        class CountingWave(events_mod.DeliveryWave):
            __slots__ = ()

            def __init__(self, *args):
                waves.append(args)
                super().__init__(*args)

        def refuse(*args):
            raise AssertionError("a wholly late fan-out drew its latencies")

        monkeypatch.setattr(events_mod, "DeliveryWave", CountingWave)
        monkeypatch.setattr(LatencyModel, "sample_many", refuse)
        monkeypatch.setattr(LatencyModel, "sample_array", refuse)
        assert network.broadcast(MessageKind.BLOCK, "n0", None) == nodes - 1
        assert network.multicast(
            MessageKind.TX, "n1", None, recipients=["n0", "n1", "n2"]
        ) == 2
        assert scheduler.pending == nodes - 1 + 2
        assert scheduler._heap == [] and scheduler.peak_pending == 0
        assert waves == []
        for __ in range(nodes - 1 + 2):
            latency.sample(reference)
        assert network._rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("nodes", [3, CROSSOVER + 1])
    def test_base_exactly_on_horizon_is_held(self, nodes):
        """``now + base == horizon`` is due, not late."""
        latency = LatencyModel(base_seconds=50.0, jitter_seconds=0.0)
        scheduler, network = make_net(nodes, 50.0, latency)
        network.broadcast(MessageKind.BLOCK, "n0", None)
        assert len(held(scheduler)) == nodes - 1
        scheduler.run()
        assert scheduler.events_fired == nodes - 1


class TestVectorWave:
    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(GRID, min_size=1, max_size=300),
        horizon=GRID,
        lead=st.integers(min_value=0, max_value=3),
    )
    def test_array_wave_equals_list_wave(self, times, horizon, lead):
        """Ties and items exactly at the horizon included."""
        kept = []
        for scheduler, wave_times in (
            (Scheduler(horizon=horizon), times),
            (Scheduler(horizon=horizon), np.asarray(times)),
        ):
            for __ in range(lead):  # sequence numbers drawn before the wave
                scheduler.schedule_at(horizon, print)
            scheduler.schedule_wave(wave_times, list(range(len(times))), print)
            assert scheduler.pending == lead + len(times)
            kept.append([entry for entry in held(scheduler) if entry[2] != ()])
        due = sorted(
            (t, lead + i, i) for i, t in enumerate(times) if t <= horizon
        )
        assert kept[0] == kept[1] == due
        # Plain floats and ints on the heap, never numpy scalars.
        assert all(type(t) is float and type(s) is int for t, s, __ in kept[1])

    @pytest.mark.parametrize("horizon", [math.inf, 110.0, 160.0])
    def test_fan_out_paths_agree(self, horizon, monkeypatch):
        """A partly late broadcast holds the same items either way."""
        latency = LatencyModel(base_seconds=60.0, jitter_seconds=90.0)
        runs = []
        for crossover in (CROSSOVER, math.inf):
            monkeypatch.setattr(network_mod, "_NUMPY_BATCH_MIN", crossover)
            scheduler, network = make_net(2 * CROSSOVER, horizon, latency, seed=9)
            for sender in ("n0", "n1", "n2"):
                network.broadcast(MessageKind.BLOCK, sender, None)
            runs.append(
                (
                    [(t, s, item.node_id) for t, s, item in held(scheduler)],
                    scheduler.pending,
                    network._rng.getstate(),
                )
            )
        assert runs[0] == runs[1]
        assert 0 < len(runs[0][0]) <= runs[0][1]
