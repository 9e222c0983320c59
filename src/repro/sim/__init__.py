"""Top-level simulation driver.

Turns a workload plus a shard topology into a discrete-event run and
extracts the paper's metrics: waiting time until every injected
transaction is confirmed (the throughput numerator/denominator), per-shard
empty blocks, and communication counts.

Two abstraction levels coexist deliberately:

* :class:`~repro.sim.simulator.ShardedSimulation` — shard-group level,
  used by the throughput/empty-block experiments where block timing and
  transaction selection are what matters (scales to the Sec. VI-E sizes);
* :mod:`repro.sim.protocol` — full-node level with real message passing,
  membership verification and cheater rejection, used by the integration
  tests and the security examples.
"""

from repro.sim.config import SimulationConfig, TimingModel
from repro.sim.simulator import (
    ShardGroupSpec,
    ShardedSimulation,
    SimulationResult,
    ShardOutcome,
)
from repro.sim.metrics import throughput_improvement
from repro.sim.protocol import ProtocolSimulation, ProtocolConfig
from repro.sim.campaign import Campaign, CampaignResult, EpochOutcome

__all__ = [
    "SimulationConfig",
    "TimingModel",
    "ShardGroupSpec",
    "ShardedSimulation",
    "SimulationResult",
    "ShardOutcome",
    "throughput_improvement",
    "ProtocolSimulation",
    "ProtocolConfig",
    "Campaign",
    "CampaignResult",
    "EpochOutcome",
]
