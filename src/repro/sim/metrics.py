"""The paper's headline metric, shared by experiments and benchmarks."""

from __future__ import annotations

from repro.errors import SimulationError


def throughput_improvement(ethereum_time: float, sharded_time: float) -> float:
    """The paper's headline metric: ``W_E / W_S`` (Sec. VI-A).

    ``W_E`` and ``W_S`` are the waiting times until every injected
    transaction is validated in Ethereum and in the sharding scheme.
    """
    if ethereum_time <= 0 or sharded_time <= 0:
        raise SimulationError("waiting times must be positive")
    return ethereum_time / sharded_time
