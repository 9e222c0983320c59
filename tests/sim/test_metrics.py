"""Tests for repro.sim.metrics."""

import pytest

from repro.errors import SimulationError
from repro.sim.metrics import throughput_improvement


class TestThroughputImprovement:
    def test_basic_ratio(self):
        assert throughput_improvement(720.0, 100.0) == pytest.approx(7.2)

    def test_invalid_times(self):
        with pytest.raises(SimulationError):
            throughput_improvement(0.0, 1.0)
        with pytest.raises(SimulationError):
            throughput_improvement(1.0, -1.0)
